"""Seeded random model builders for property and acceptance tests."""

from __future__ import annotations

import copy
import json
import random
import re

from compocheck.model import (
    Association,
    AssociationEnd,
    Attribute,
    Class,
    ClassKind,
    Connector,
    EndRef,
    Interface,
    Model,
    Part,
    Port,
    deleg_name,
)


def random_classifier_dag(rng: random.Random, max_classifiers: int = 20) -> Model:
    """A random generalization/realization DAG (acyclic by construction:
    generals only point at earlier declarations), with some interface groups
    and one port per class so every closure function has something to chew on."""
    n_interfaces = rng.randint(1, max(1, max_classifiers - 2))
    n_classes = rng.randint(1, max(1, max_classifiers - n_interfaces))
    model = Model()
    for i in range(n_interfaces):
        earlier = [f"I{j}" for j in range(i)]
        generals = rng.sample(earlier, k=min(len(earlier), rng.randint(0, 3)))
        is_group = len(generals) >= 2 and rng.random() < 0.25
        model.interfaces.append(Interface(name=f"I{i}", generals=generals, is_group=is_group))
    interface_names = [i.name for i in model.interfaces]
    for c in range(n_classes):
        earlier = [f"K{j}" for j in range(c)]
        generals = rng.sample(earlier, k=min(len(earlier), rng.randint(0, 2)))
        realizes = rng.sample(interface_names, k=min(len(interface_names), rng.randint(0, 3)))
        cls = Class(name=f"K{c}", kind=ClassKind.ACTIVE, generals=generals, realizes=realizes)
        cls.ports.append(Port(name="p", contract=rng.choice(interface_names),
                              reversed=rng.random() < 0.5))
        model.classes.append(cls)
    return model


def random_wellformed_model(rng: random.Random, max_depth: int = 3) -> Model:
    """A random composite hierarchy that satisfies every rule by construction.

    Leaves realize fresh interfaces; each composite exposes one or two provided
    boundary ports whose contract (a group when needed) covers exactly the
    union of the interfaces its children provide, wired with untyped inbound
    delegations. The root may additionally grow an outbound required chain and
    a part-to-port link typed with an association.
    """
    model = Model()
    counters = {"iface": 0, "cls": 0}
    groups: dict[tuple[str, ...], str] = {}

    def new_interface() -> str:
        name = f"S{counters['iface']}"
        counters["iface"] += 1
        model.interfaces.append(Interface(name=name, operations=[f"do{name}"]))
        return name

    def group_for(members: list[str]) -> str:
        key = tuple(sorted(members))
        if len(key) == 1:
            return key[0]
        if key not in groups:
            name = f"G{len(groups)}"
            groups[key] = name
            model.interfaces.append(Interface(name=name, generals=list(key), is_group=True))
        return groups[key]

    def new_class_name() -> str:
        name = f"C{counters['cls']}"
        counters["cls"] += 1
        return name

    def gen_component(depth: int, force_composite: bool = False) -> tuple[Class, list[str]]:
        name = new_class_name()
        if depth == 0 or (not force_composite and rng.random() < 0.4):
            provided = [new_interface() for _ in range(rng.randint(1, 3))]
            cls = Class(name=name, kind=ClassKind.ACTIVE, realizes=list(provided))
            model.classes.append(cls)
            return cls, sorted(provided)
        children = [gen_component(depth - 1) for _ in range(rng.randint(1, 3))]
        cls = Class(name=name, kind=ClassKind.ACTIVE)
        for i, (child_cls, _) in enumerate(children):
            multiplicity = 2 if rng.random() < 0.12 else 1
            cls.parts.append(Part(name=f"p{i}", type=child_cls.name, multiplicity=multiplicity))
        indices = list(range(len(children)))
        if len(children) >= 2 and rng.random() < 0.4:
            cut = rng.randint(1, len(children) - 1)
            batches = [indices[:cut], indices[cut:]]
        else:
            batches = [indices]
        provided_all: list[str] = []
        for b, batch in enumerate(batches):
            union = sorted(set().union(*(set(children[i][1]) for i in batch)))
            port_name = f"b{b}"
            cls.ports.append(Port(name=port_name, contract=group_for(union)))
            for i in batch:
                child_cls, _ = children[i]
                if child_cls.is_composite:
                    for child_port in child_cls.ports:
                        if not child_port.reversed:
                            cls.connectors.append(Connector(
                                end1=EndRef(port=port_name),
                                end2=EndRef(part=f"p{i}", port=child_port.name)))
                else:
                    cls.connectors.append(Connector(
                        end1=EndRef(port=port_name), end2=EndRef(part=f"p{i}")))
            provided_all.extend(union)
        model.classes.append(cls)
        return cls, sorted(provided_all)

    root_cls, _ = gen_component(rng.randint(1, max_depth), force_composite=True)

    if rng.random() < 0.5:  # outbound relay: part's required port delegated to the boundary
        out_iface = new_interface()
        relay = Class(name=new_class_name(), kind=ClassKind.ACTIVE,
                      ports=[Port(name="rq", contract=out_iface, reversed=True)])
        model.classes.append(relay)
        root_cls.parts.append(Part(name="rly", type=relay.name))
        root_cls.ports.append(Port(name="rbound", contract=out_iface, reversed=True))
        root_cls.connectors.append(Connector(end1=EndRef(part="rly", port="rq"),
                                             end2=EndRef(port="rbound")))
    if rng.random() < 0.5:  # outbound sender: part wired straight to a boundary port, typed
        out_iface = new_interface()
        sender = Class(name=new_class_name(), kind=ClassKind.ACTIVE)
        model.classes.append(sender)
        root_cls.parts.append(Part(name="snd", type=sender.name))
        root_cls.ports.append(Port(name="sbound", contract=out_iface, reversed=True))
        assoc = Association(name="itsOut",
                            end1=AssociationEnd(sender.name, navigable=False),
                            end2=AssociationEnd(out_iface, navigable=True))
        model.associations.append(assoc)
        root_cls.connectors.append(Connector(end1=EndRef(part="snd"),
                                             end2=EndRef(port="sbound"),
                                             association="itsOut"))
    model.root = root_cls.name
    return model


def provided_origin_connectors(model: Model) -> list[tuple[Class, int]]:
    """(class, index) of every connector starting at a provided port; dropping
    one of these breaks a delivery path without touching any other rule."""
    from compocheck.type_system import TypingIndex

    index = TypingIndex(model)
    out = []
    for cls, idx, conn in model.iter_connectors():
        origin = index.connector(cls, conn).origin
        if origin is not None and origin.port is not None and not origin.port.reversed:
            out.append((cls, idx))
    return out


def drop_connector(model: Model, cls_name: str, index: int) -> Model:
    """A deep copy of the model with one connector removed."""
    from compocheck.ingest import parse_json, serialize_json

    clone = parse_json(serialize_json(model))
    clone_cls = clone.find_class(cls_name)
    del clone_cls.connectors[index]
    return clone


def relay_chain_model(length: int) -> Model:
    """``length`` nested composites, each relaying one provided port inward,
    ending at a leaf that realizes the transported interface."""
    model = Model()
    model.interfaces.append(Interface(name="X", operations=["ping"]))
    model.classes.append(Class(name="Z", kind=ClassKind.ACTIVE, realizes=["X"]))
    for level in range(length, 0, -1):
        inner_is_leaf = level == length
        inner_type = "Z" if inner_is_leaf else f"R{level + 1}"
        cls = Class(name=f"R{level}", kind=ClassKind.ACTIVE,
                    parts=[Part(name="inner", type=inner_type)],
                    ports=[Port(name="p", contract="X")])
        if inner_is_leaf:
            cls.connectors.append(Connector(end1=EndRef(port="p"), end2=EndRef(part="inner")))
        else:
            cls.connectors.append(Connector(end1=EndRef(port="p"),
                                            end2=EndRef(part="inner", port="p")))
        model.classes.append(cls)
    model.root = "R1"
    return model


def random_fanout_port_model(rng: random.Random, universe: int = 10,
                             ) -> tuple[Model, Class, Port, list[set[str]]]:
    """A hub whose required port fans out over 2-5 untyped links, each link
    transporting a prescribed random subset of a fixed interface universe.

    Returns (model, hub class, hub port, the subsets in link order).
    """
    model = Model()
    names = [f"U{i}" for i in range(universe)]
    for name in names:
        model.interfaces.append(Interface(name=name, operations=[f"do{name}"]))
    model.interfaces.append(Interface(name="All", generals=list(names), is_group=True))
    hub = Class(name="Hub", kind=ClassKind.ACTIVE,
                ports=[Port(name="r", contract="All", reversed=True)])
    model.classes.append(hub)
    composite = Class(name="Net", kind=ClassKind.ACTIVE,
                      parts=[Part(name="hub", type="Hub")])
    subsets: list[set[str]] = []
    for i in range(rng.randint(2, 5)):
        subset = set(rng.sample(names, k=rng.randint(1, 4)))
        subsets.append(subset)
        provider = Class(name=f"Prov{i}", kind=ClassKind.ACTIVE, realizes=sorted(subset))
        model.classes.append(provider)
        composite.parts.append(Part(name=f"t{i}", type=f"Prov{i}"))
        composite.connectors.append(Connector(end1=EndRef(part="hub", port="r"),
                                              end2=EndRef(part=f"t{i}")))
    model.classes.append(composite)
    return model, hub, hub.ports[0], subsets


def flat_model(n: int) -> Model:
    """One composite with n leaf parts, each reached from one group port."""
    model = Model()
    names = [f"F{i}" for i in range(n)]
    model.interfaces += [Interface(name=name) for name in names]
    model.interfaces.append(Interface(name="FG", generals=list(names), is_group=True))
    model.classes += [Class(name=f"Leaf{i}", kind=ClassKind.ACTIVE, realizes=[name])
                      for i, name in enumerate(names)]
    top = Class(name="Flat", kind=ClassKind.ACTIVE, ports=[Port(name="p", contract="FG")])
    for i in range(n):
        top.parts.append(Part(name=f"l{i}", type=f"Leaf{i}"))
        top.connectors.append(Connector(end1=EndRef(port="p"), end2=EndRef(part=f"l{i}")))
    model.classes.append(top)
    model.root = "Flat"
    return model


def gen_chain_model(n: int, cyclic: bool = False) -> Model:
    """An n-deep class generalization chain; every class has a provided port.
    With ``cyclic`` the first class also specializes the last one."""
    model = Model(interfaces=[Interface(name="H")])
    for i in range(n):
        model.classes.append(Class(name=f"K{i}", kind=ClassKind.ACTIVE,
                                   generals=[f"K{i - 1}"] if i else [],
                                   realizes=[] if i else ["H"],
                                   ports=[Port(name="p", contract="H")]))
    if cyclic:
        model.classes[0].generals.append(f"K{n - 1}")
    model.root = f"K{n - 1}"
    return model


def interface_chain_model(n: int) -> Model:
    """An n-deep interface generalization chain ``I0 <- I1 <- ...`` and one
    class with a provided port per interface, declared deepest first, that
    uses ``I0``, so W000 asks for every port's closure."""
    model = Model(interfaces=[Interface(name=f"I{i}", generals=[f"I{i - 1}"] if i else [])
                              for i in range(n)])
    model.classes.append(Class(name="C", kind=ClassKind.ACTIVE, usages=["I0"],
                               ports=[Port(name=f"p{i}", contract=f"I{i}")
                                      for i in reversed(range(n))]))
    model.root = "C"
    return model


def corrupt_names(rng: random.Random, model: Model, mutations: int) -> Model:
    """Apply ``mutations`` seeded name corruptions to ``model`` in place; return it.

    Each corruption points a reference at a name of the wrong kind or at an
    undeclared one, declares a name again (before or after the first
    declaration, in its own namespace or another, or as a second part or port
    of one class), sets a bogus root, claims a ``deleg_`` name, or breaks a
    structural constraint. Together they reach every code
    ``validate_integrity`` emits and the E004 synthesis conflict, and make the
    outcome depend on which declaration of a name is found first.
    """
    def declared() -> list[str]:
        return ([i.name for i in model.interfaces] + [c.name for c in model.classes]
                + [a.name for a in model.associations])

    def any_name() -> str:
        return rng.choice(declared() + ["Nope", deleg_name("Nope")]
                          + [deleg_name(i.name) for i in model.interfaces])

    def set_slot(owner, key, value) -> None:
        if isinstance(owner, list):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def retarget() -> None:
        slots: list = []
        for iface in model.interfaces:
            slots += [(iface.generals, k) for k in range(len(iface.generals))]
        for cls in model.classes:
            for refs in (cls.generals, cls.realizes, cls.usages):
                slots += [(refs, k) for k in range(len(refs))]
            slots += [(part, "type") for part in cls.parts]
            slots += [(port, "contract") for port in cls.ports]
            slots += [(attr, "type") for attr in cls.attributes]
            slots += [(conn, "association") for conn in cls.connectors]
        for assoc in model.associations:
            slots += [(assoc.end1, "type"), (assoc.end2, "type")]
        if slots:
            set_slot(*rng.choice(slots), any_name())

    def add_reference() -> None:
        choice = rng.randrange(4)
        if choice == 0 and model.interfaces:
            rng.choice(model.interfaces).generals.append(any_name())
        elif choice == 1 and model.classes:
            cls = rng.choice(model.classes)
            rng.choice((cls.generals, cls.realizes, cls.usages)).append(any_name())
        elif choice == 2 and model.classes:
            rng.choice(model.classes).attributes.append(Attribute("attr", any_name()))
        elif model.classes:
            cls = rng.choice(model.classes)
            cls.ports.append(Port(name=f"q{len(cls.ports)}", contract=any_name(),
                                  reversed=rng.random() < 0.5))

    def retarget_end() -> None:
        owners = [c for c in model.classes if c.connectors]
        if not owners:
            return
        cls = rng.choice(owners)
        end = rng.choice([e for conn in cls.connectors for e in (conn.end1, conn.end2)])
        members = [p.name for p in cls.parts] + [p.name for p in cls.ports] + ["nope"]
        ports = sorted({p.name for c in model.classes for p in c.ports}) + ["nope"]
        choice = rng.randrange(4)
        if choice == 0:
            end.part = rng.choice(members)
        elif choice == 1:
            end.port = rng.choice(ports)
        elif choice == 2:
            end.part, end.port = None, rng.choice(ports + [None])
        else:
            end.part, end.port = rng.choice(members), rng.choice(ports)

    def redeclare() -> None:
        name = rng.choice(declared())
        choice = rng.randrange(4)
        if choice == 0:
            element = Interface(name=name, generals=[any_name()] if rng.random() < 0.5 else [],
                                is_group=rng.random() < 0.5)
            target = model.interfaces
        elif choice == 1:
            element = Class(name=name, kind=rng.choice(list(ClassKind)),
                            realizes=[any_name()] if rng.random() < 0.5 else [])
            target = model.classes
        elif choice == 2:
            element = Association(name=name, end1=AssociationEnd(any_name()),
                                  end2=AssociationEnd(any_name(), navigable=rng.random() < 0.7))
            target = model.associations
        else:
            owners = [c for c in model.classes if c.parts or c.ports]
            if not owners:
                return
            cls = rng.choice(owners)
            member = rng.choice(cls.parts + cls.ports)
            if rng.random() < 0.5:
                cls.parts.insert(rng.randint(0, len(cls.parts)),
                                 Part(name=member.name, type=rng.choice(declared())))
            else:
                cls.ports.insert(rng.randint(0, len(cls.ports)),
                                 Port(name=member.name, contract=any_name()))
            return
        target.insert(rng.randint(0, len(target)), element)

    def shadow() -> None:
        """Declare a changed copy of an element just before it, so a lookup finds the copy."""
        candidates = model.interfaces + [c for c in model.classes if c.ports] + model.associations
        if not candidates:
            return
        element = rng.choice(candidates)
        target = {Interface: model.interfaces, Class: model.classes}.get(type(element),
                                                                         model.associations)
        twin = copy.deepcopy(element)
        if isinstance(twin, Interface):
            twin.is_group = not twin.is_group
        elif isinstance(twin, Class):
            del twin.ports[rng.randint(0, len(twin.ports)):]
            del twin.parts[rng.randint(0, len(twin.parts)):]
        else:
            twin.end1, twin.end2 = twin.end2, AssociationEnd(any_name(), rng.random() < 0.5)
        target.insert(target.index(element), twin)

    def set_root() -> None:
        model.root = rng.choice([None, "Nope", any_name(), rng.choice(declared())])

    def claim_deleg() -> None:
        if not model.interfaces:
            return
        iface = rng.choice(model.interfaces).name
        name = deleg_name(iface)
        other = rng.choice(declared())
        choice = rng.randrange(6)
        if choice == 0:
            model.classes.insert(rng.randint(0, len(model.classes)), Class(name=name))
        elif choice == 1:
            model.interfaces.append(Interface(name=name))
        elif choice == 2:
            model.associations.append(Association(
                name, AssociationEnd(iface), AssociationEnd(iface, navigable=True)))
        elif choice == 3:
            model.associations.append(Association(
                name, AssociationEnd(iface), AssociationEnd(other, navigable=True)))
        elif choice == 4:
            model.associations.append(Association(
                name, AssociationEnd(iface), AssociationEnd(iface)))
        else:
            connectors = [conn for cls in model.classes for conn in cls.connectors]
            if connectors:
                rng.choice(connectors).association = name

    def break_structure() -> None:
        choice = rng.randrange(4)
        parts = [p for c in model.classes for p in c.parts]
        if choice == 0 and parts:
            rng.choice(parts).multiplicity = rng.choice([0, -1])
        elif choice == 1 and parts:
            cls = rng.choice([c for c in model.classes if c.parts])
            rng.choice(cls.parts).type = cls.name
        elif choice == 2:
            groups = [i for i in model.interfaces if i.is_group]
            if groups:
                del rng.choice(groups).generals[1:]
        else:
            connectors = [conn for cls in model.classes for conn in cls.connectors]
            if connectors:
                conn = rng.choice(connectors)
                setattr(conn, rng.choice(("end1", "end2")), EndRef())

    ops = [retarget, add_reference, retarget_end, redeclare, shadow, set_root, claim_deleg,
           break_structure]
    for _ in range(mutations):
        rng.choice(ops)()
    return model


def scramble_typing(rng: random.Random, model: Model, mutations: int) -> Model:
    """Apply ``mutations`` seeded changes that keep every name declared to
    ``model`` in place; return it. Each types a connector with a fresh
    association (ends mostly of the classifiers at the connector's own ends,
    else of any declared one; either or both or neither navigable), drops a
    connector's typing, adds a link between two parts or their ports, flips a
    port's direction, changes a class's kind, or has a class use an
    interface (a class with ports at times also realizes it). Together they
    reach every rule code and every reason W000 gives."""
    classifiers = [i.name for i in model.interfaces] + [c.name for c in model.classes]

    def near(owner: Class, ref: EndRef) -> str:
        """The classifier at a connector end: a port's contract, a part's class."""
        part = next((p for p in owner.parts if p.name == ref.part), None)
        if ref.port is None:
            return part.type if part is not None else rng.choice(classifiers)
        holder = owner if part is None else next(c for c in model.classes if c.name == part.type)
        port = next((p for p in holder.ports if p.name == ref.port), None)
        return port.contract if port is not None else rng.choice(classifiers)

    def new_association(owner: Class, conn: Connector) -> str:
        name = f"ty{len(model.associations)}"
        ends = [near(owner, conn.end1), near(owner, conn.end2)]
        rng.shuffle(ends)
        types = [end if rng.random() < 0.7 else rng.choice(classifiers) for end in ends]
        navigable = rng.choice([(False, True), (False, True), (True, False), (True, True),
                                (False, False)])
        model.associations.append(Association(name, AssociationEnd(types[0], navigable[0]),
                                              AssociationEnd(types[1], navigable[1])))
        return name

    def part_end(part: Part) -> EndRef:
        ports = next(c for c in model.classes if c.name == part.type).ports
        return EndRef(part.name, rng.choice(ports).name if ports and rng.random() < 0.5 else None)

    for _ in range(mutations):
        choice = rng.randrange(6)
        owners = [c for c in model.classes if c.connectors]
        composites = [c for c in model.classes if len(c.parts) >= 2]
        if choice == 0 and owners:
            cls = rng.choice(owners)
            conn = rng.choice(cls.connectors)
            conn.association = new_association(cls, conn)
        elif choice == 1 and owners:
            rng.choice(rng.choice(owners).connectors).association = None
        elif choice == 2 and composites:
            cls = rng.choice(composites)
            conn = Connector(*[part_end(part) for part in rng.sample(cls.parts, 2)])
            if rng.random() < 0.6:
                conn.association = new_association(cls, conn)
            cls.connectors.append(conn)
        elif choice == 3:
            ports = [p for c in model.classes for p in c.ports]
            if ports:
                port = rng.choice(ports)
                port.reversed = not port.reversed
        elif choice == 4:
            rng.choice(model.classes).kind = rng.choice(list(ClassKind))
        elif model.interfaces:
            cls = rng.choice(model.classes)
            name = rng.choice(model.interfaces).name
            cls.usages.append(name)
            if cls.ports and rng.random() < 0.5:
                cls.realizes.append(name)
    return model


def separate_names(rng: random.Random, model: Model) -> Model:
    """Insert a ``#`` or a ``.`` inside most class, part and port names of
    ``model``, in place, with every reference to them following; return it.
    Element paths may then be split at more than one place."""
    def inside(name: str) -> str:
        if len(name) < 2 or rng.random() < 0.2:
            return name
        cut = rng.randint(1, len(name) - 1)
        return name[:cut] + rng.choice("#.") + name[cut:]

    classes = {cls.name: inside(cls.name) for cls in model.classes}
    ports = {(cls.name, port.name): inside(port.name) for cls in model.classes
             for port in cls.ports}
    for cls in model.classes:
        parts = {part.name: (inside(part.name), part.type) for part in cls.parts}
        for conn in cls.connectors:
            for ref in (conn.end1, conn.end2):
                if ref.port is not None:
                    holder = cls.name if ref.part is None else parts[ref.part][1]
                    ref.port = ports[holder, ref.port]
                if ref.part is not None:
                    ref.part = parts[ref.part][0]
        for part in cls.parts:
            part.name, part.type = parts[part.name][0], classes[part.type]
        for port in cls.ports:
            port.name = ports[cls.name, port.name]
        cls.generals = [classes[name] for name in cls.generals]
    for cls in model.classes:
        cls.name = classes[cls.name]
    for assoc in model.associations:
        for end in (assoc.end1, assoc.end2):
            end.type = classes.get(end.type, end.type)
    model.root = classes.get(model.root, model.root)
    return model


def bidirectional_part_links(rng: random.Random, links: int = 6) -> Model:
    """A composite whose part-part links are each typed by a bidirectional
    association of their own. Each association end is drawn, for one of the
    link's two parts, from four kinds of classifier: the part's class, its
    superclass, an unrelated class, or an interface the other part realizes."""
    model = Model(interfaces=[Interface("I1", operations=["f"]), Interface("I2", operations=["g"])])
    for name, general, realized in (("P1", "B1", "I1"), ("P2", "B2", "I2")):
        model.classes += [Class(general, ClassKind.ACTIVE),
                          Class(name, ClassKind.ACTIVE, [general], [realized])]
    model.classes.append(Class("U", ClassKind.ACTIVE))
    candidates = {"a": ["P1", "B1", "U", "I2"], "b": ["P2", "B2", "U", "I1"]}
    top = Class("C", ClassKind.ACTIVE, parts=[Part("a", "P1"), Part("b", "P2")])
    for k in range(links):
        name = f"both{k}"
        ends = [AssociationEnd(rng.choice(candidates[rng.choice("ab")]), True) for _ in "12"]
        model.associations.append(Association(name, *ends))
        top.connectors.append(Connector(*[EndRef(part) for part in rng.sample("ab", 2)], name))
    model.classes.append(top)
    return model


_ACROSS_SHAPES = ["client", "server", "up", "down", "self"]


def across_links(rng: random.Random, parts: int = 6) -> Model:
    """A composite ``A`` whose parts' required ports are each linked to a
    sibling's provided port, untyped or typed by an interface association.
    A part is a client (a required port), a server (a provided port), a relay
    that forwards an inner client's required port up or its provided port
    down to an inner server, or a class that links its own required port to
    its own provided port and an inner client to that required port. Requests
    then hop up, across (from a required port to a provided port at the same
    level) and down."""
    names = [f"X{i}" for i in range(rng.randint(1, 3))]
    model = Model(interfaces=[Interface(x, operations=[f"op{x}"]) for x in names],
                  root="A")
    for x in names:
        model.classes += [Class(f"Client{x}", ClassKind.ACTIVE, usages=[x],
                                ports=[Port("r", x, reversed=True)]),
                          Class(f"Server{x}", ClassKind.ACTIVE, realizes=[x], ports=[Port("p", x)])]
    top = Class("A", ClassKind.ACTIVE)
    required: list[tuple[str, str]] = []
    provided: list[tuple[str, str]] = []  # (part, interface) of each end to link
    for k in range(parts):
        x, shape, name = rng.choice(names), rng.choice(_ACROSS_SHAPES), f"K{k}"
        if shape in ("client", "server"):
            top.parts.append(Part(f"k{k}", f"{shape.title()}{x}"))
        else:
            cls = Class(name, ClassKind.ACTIVE)
            if shape == "up":
                cls.parts.append(Part("s", f"Client{x}"))
                cls.ports.append(Port("r", x, reversed=True))
                cls.connectors.append(Connector(EndRef("s", "r"), EndRef(port="r")))
            elif shape == "down":
                cls.parts.append(Part("t", f"Server{x}"))
                cls.ports.append(Port("p", x))
                cls.connectors.append(Connector(EndRef(port="p"), EndRef("t", "p")))
            else:
                cls.realizes.append(x)
                cls.parts.append(Part("s", f"Client{x}"))
                cls.ports += [Port("p", x), Port("r", x, reversed=True)]
                cls.connectors += [Connector(EndRef("s", "r"), EndRef(port="r")),
                                   Connector(EndRef(port="r"), EndRef(port="p"))]
            model.classes.append(cls)
            top.parts.append(Part(f"k{k}", name))
        if shape in ("client", "up"):
            required.append((f"k{k}", x))
        else:
            provided.append((f"k{k}", x))
    for part, x in required:
        if not provided:
            break
        target, y = rng.choice(provided)
        association = None
        if rng.random() < 0.3:
            association = f"t{len(model.associations)}"
            model.associations.append(Association(association, AssociationEnd(x),
                                                  AssociationEnd(y, navigable=True)))
        ends = [EndRef(part, "r"), EndRef(target, "p")]
        rng.shuffle(ends)
        top.connectors.append(Connector(*ends, association))
    model.classes.append(top)
    return model


_DSL_PIECE = re.compile(r"//[^\n]*|[ \t\r\n]+|[A-Za-z_][A-Za-z0-9_]*|.", re.S)
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\n  ", "\r\n", " // note\n", "\n// é\n"]
_STRAYS = ["@", "#", "é", "\x00", "\r", "\t", "/", "$", "9", "\x0b", "\x0c", "\x1c", "\x85",
           " ", "{", "}", ";", ":", ".", "x3", "self", "class"]


def _interleave(rng: random.Random, runs: list[list]) -> list:
    """Merge several lists at random, keeping each list's own order."""
    runs = [list(run) for run in runs if run]
    out = []
    while runs:
        run = rng.choice(runs)
        out.append(run.pop(0))
        if not run:
            runs.remove(run)
    return out


def model_to_dsl(rng: random.Random, model: Model) -> str:
    """Write ``model`` as DSL text with a seeded layout: declarations of
    different kinds interleaved, random whitespace, ``\\r\\n`` line ends and
    comments between tokens, and optional statement terminators. Parsing the
    text gives back the model without its root (the DSL has no root)."""
    def body(statements: list[list[str]]) -> list[str]:
        out = ["{"]
        for k, statement in enumerate(statements):
            last = k == len(statements) - 1
            out += statement if last and rng.random() < 0.3 else statement + [";"]
        return out + ["}"]

    def interface_tokens(iface: Interface) -> list[str]:
        out = ["interface", iface.name] + (["group"] if iface.is_group else [])
        if iface.generals:
            out += [":"] + _comma_list(iface.generals)
        return out + body([["op", op] for op in iface.operations])

    def class_tokens(cls: Class) -> list[str]:
        out = ["class", cls.name]
        if cls.kind is not ClassKind.PASSIVE or rng.random() < 0.3:
            out.append(cls.kind.value)
        if cls.generals:
            out += [":", cls.generals[0]]
        statements = []
        for keyword, names in (("realizes", cls.realizes), ("uses", cls.usages)):
            if names and rng.random() < 0.5:
                statements += [[keyword, name] for name in names]
            elif names:
                statements.append([keyword] + _comma_list(names))
        parts = [["part", p.name, ":", p.type]
                 + ([f"x{p.multiplicity}"] if p.multiplicity != 1 or rng.random() < 0.2 else [])
                 for p in cls.parts]
        ports = [["port", p.name, ":", p.contract] + (["reversed"] if p.reversed else [])
                 for p in cls.ports]
        connectors = [["connector"] + _end_tokens(c.end1) + [","] + _end_tokens(c.end2)
                      + (["via", c.association] if c.association is not None else [])
                      for c in cls.connectors]
        return out + body(statements + _interleave(rng, [parts, ports, connectors]))

    def assoc_tokens(assoc: Association) -> list[str]:
        ends = [[end.type] + (["nav"] if end.navigable else []) for end in (assoc.end1, assoc.end2)]
        return (["assoc", assoc.name, "("] + ends[0] + [","] + ends[1] + [")"]
                + ([";"] if rng.random() < 0.7 else []))

    declarations = _interleave(rng, [[interface_tokens(i) for i in model.interfaces],
                                     [class_tokens(c) for c in model.classes],
                                     [assoc_tokens(a) for a in model.associations]])
    pieces = []
    for tokens in declarations:
        for token in tokens:
            pieces += [token, rng.choice(_SEPARATORS)]
        pieces.append("\n" if rng.random() < 0.8 else "\n\n")
    return "".join(pieces)


def _comma_list(names: list[str]) -> list[str]:
    out = [names[0]]
    for name in names[1:]:
        out += [",", name]
    return out


def _end_tokens(ref: EndRef) -> list[str]:
    if ref.part is None:
        return ["self", ".", ref.port]
    return [ref.part] if ref.port is None else [ref.part, ".", ref.port]


_LINE_BLANKS = ["", "", " ", "  ", "\t", " \t\r"]
_LINE_GAPS = [" ", " ", "  ", "\t", " \r "]
_LINE_COMMENTS = ["", "", "", " // note", "\t// é\x0b", "//"]
_IDENT_CHAR = re.compile(r"[A-Za-z0-9_]").match


def model_to_line_dsl(rng: random.Random, model: Model) -> str:
    """Write ``model`` one statement per line, the layout the DSL's statement
    reader takes, varied where it allows: seeded blanks around tokens,
    trailing and whole-line comments, blank lines, ``\\r\\n`` line ends,
    declarations of different kinds interleaved, and the optional words (a
    ``passive`` kind, an ``x1`` multiplicity, an association's ``;``) at
    random. Parsing the text gives back the model without its root."""
    lines: list[str] = []

    def emit(tokens: list[str]) -> None:
        text = rng.choice(_LINE_BLANKS) + tokens[0]
        for before, token in zip(tokens, tokens[1:]):
            words = _IDENT_CHAR(before[-1]) and _IDENT_CHAR(token[0])
            text += rng.choice(_LINE_GAPS if words else _LINE_BLANKS) + token
        lines.append(text + rng.choice(_LINE_BLANKS) + rng.choice(_LINE_COMMENTS))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "// é"]))

    def interface(iface: Interface) -> None:
        tokens = ["interface", iface.name] + (["group"] if iface.is_group else [])
        if iface.generals:
            tokens += [":"] + _comma_list(iface.generals)
        tokens.append("{")
        for op in iface.operations:
            tokens += ["op", op, ";"]
        emit(tokens + ["}"])

    def class_(cls: Class) -> None:
        head = ["class", cls.name]
        if cls.kind is not ClassKind.PASSIVE or rng.random() < 0.3:
            head.append(cls.kind.value)
        if cls.generals:
            head += [":", cls.generals[0]]
        members = []
        for keyword, names in (("realizes", cls.realizes), ("uses", cls.usages)):
            if names and rng.random() < 0.5:
                members += [[keyword, name, ";"] for name in names]
            elif names:
                members.append([keyword] + _comma_list(names) + [";"])
        parts = [["part", p.name, ":", p.type]
                 + ([f"x{p.multiplicity}"] if p.multiplicity != 1 or rng.random() < 0.2 else [])
                 + [";"] for p in cls.parts]
        ports = [["port", p.name, ":", p.contract] + (["reversed"] if p.reversed else []) + [";"]
                 for p in cls.ports]
        connectors = [["connector"] + _end_tokens(c.end1) + [","] + _end_tokens(c.end2)
                      + (["via", c.association] if c.association is not None else []) + [";"]
                      for c in cls.connectors]
        members += _interleave(rng, [parts, ports, connectors])
        if not members and rng.random() < 0.5:
            emit(head + ["{", "}"])
            return
        emit(head + ["{"])
        for member in members:
            emit(member)
        emit(["}"])

    def association(assoc: Association) -> None:
        ends = [[end.type] + (["nav"] if end.navigable else []) for end in (assoc.end1, assoc.end2)]
        emit(["assoc", assoc.name, "("] + ends[0] + [","] + ends[1] + [")"]
             + ([";"] if rng.random() < 0.7 else []))

    for write, element in _interleave(rng, [
            [(interface, i) for i in model.interfaces], [(class_, c) for c in model.classes],
            [(association, a) for a in model.associations]]):
        write(element)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def corrupt_dsl(rng: random.Random, text: str, mutations: int) -> str:
    """Apply ``mutations`` seeded corruptions to DSL text: delete, duplicate or
    swap tokens, insert stray characters (including the line breaks that
    ``str.splitlines`` knows but the DSL does not), end with a ``//`` comment
    and no final newline, or cut the text short inside a body."""
    pieces = _DSL_PIECE.findall(text)
    for _ in range(mutations):
        tokens = [k for k, piece in enumerate(pieces) if not piece.isspace()]
        choice = rng.randrange(7)
        if choice == 0 and tokens:
            del pieces[rng.choice(tokens)]
        elif choice == 1 and tokens:
            k = rng.choice(tokens)
            pieces.insert(k, pieces[k] + rng.choice(["", " "]))
        elif choice == 2 and len(tokens) >= 2:
            k = rng.randrange(len(tokens) - 1)
            a, b = rng.sample(tokens, 2) if rng.random() < 0.5 else (tokens[k], tokens[k + 1])
            pieces[a], pieces[b] = pieces[b], pieces[a]
        elif choice == 3:
            joined = "".join(pieces)
            at = rng.randint(0, len(joined))
            pieces = _DSL_PIECE.findall(joined[:at] + rng.choice(_STRAYS) + joined[at:])
        elif choice == 4:
            pieces = _DSL_PIECE.findall("".join(pieces).rstrip("\n")
                                        + rng.choice([" // tail", "//", "\t// é"]))
        elif choice == 5 and tokens:
            del pieces[rng.choice(tokens[len(tokens) // 2:]):]
        else:
            closers = [k for k in tokens if pieces[k] == "}"]
            if closers:
                del pieces[rng.choice(closers)]
    return "".join(pieces)


_SOUP_WORDS = ["interface", "class", "assoc", "op", "group", "realizes", "uses", "part", "port",
               "connector", "via", "self", "nav", "reversed", "active", "passive", "observer",
               "protected", "A", "B", "I", "J", "x2", "x0", "x1", "_q", "a1", "deleg_I"]
_SOUP_MARKS = list("{}():,;.") + ["//", "// c", "// é\x0b", "/"]
_SOUP_GAPS = ["", " ", " ", "\t", "\r", "\n", "\r\n", "\n\n", "\x0b", "\x0c", "\x1c", "\x85",
              " ", "@", "#", "é", "\x00", "$", "-", "9", "42"]


def token_soup(rng: random.Random, length: int) -> str:
    """``length`` random DSL words and marks with random gaps, comments and
    stray characters between them; two words may run together."""
    pieces = []
    for _ in range(length):
        pieces.append(rng.choice(_SOUP_WORDS) if rng.random() < 0.6 else rng.choice(_SOUP_MARKS))
        pieces.append(rng.choice(_SOUP_GAPS))
    return "".join(pieces)


def mutate_json_document(rng: random.Random, text: str, mutations: int) -> str:
    """Apply ``mutations`` seeded schema violations to a canonical JSON model:
    a value of the wrong type, a deleted or added field, a bogus format
    version or class kind, or a document cut short."""
    doc = json.loads(text)
    junk = [None, 3, 2.5, True, "s", [], {}, ["x", 1], {"name": 1}]

    def pick(values):
        """A copy of a seeded choice, so that no later mutation reaches two
        places at once or puts a list inside itself."""
        return copy.deepcopy(rng.choice(values))

    def containers(value, out):
        if isinstance(value, (dict, list)):
            out.append(value)
            for child in (value.values() if isinstance(value, dict) else value):
                containers(child, out)
        return out

    for _ in range(mutations):
        targets = containers(doc, [])
        target = rng.choice(targets)
        choice = rng.randrange(6)
        if choice == 0 and target:
            key = rng.choice(list(target)) if isinstance(target, dict) else \
                rng.randrange(len(target))
            target[key] = pick(junk)
        elif choice == 1 and target:
            if isinstance(target, dict):
                del target[rng.choice(list(target))]
            else:
                del target[rng.randrange(len(target))]
        elif choice == 2 and isinstance(target, dict):
            target[rng.choice(["name", "type", "kind", "group", "multiplicity", "reversed",
                               "navigable", "synthesized", "part", "port", "association",
                               "end1", "end2", "root", "extra"])] = pick(junk + ["A"])
        elif choice == 3:
            doc["formatVersion"] = rng.choice([0, 2, "1", None, 1])
        elif choice == 4:
            classes = [c for c in doc.get("classes", []) if isinstance(c, dict)] \
                if isinstance(doc.get("classes"), list) else []
            if classes:
                rng.choice(classes)["kind"] = rng.choice(["bogus", "Active", 1, "observer"])
        elif isinstance(target, list):
            target.append(pick(junk))
    out = json.dumps(doc, indent=rng.choice([None, 2]))
    if rng.random() < 0.1:
        out = out[:rng.randint(0, len(out))]
    return out
