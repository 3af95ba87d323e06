"""Seeded model generators whose verdicts are known by construction.

Every generator builds a :class:`Spec`, a plain description of a component
model that renders to DSL text (``.csm``) or canonical JSON text
(``.csm.json``). Alongside the text it records what compocheck must answer:
whether ``check`` passes and which diagnostic codes it reports, how many
requests a simulation delivers or strands and how many trace events it
produces. Those answers come from the shape of the construction, never from
running compocheck, so the benchmark can check every verdict it times.

The families follow the ROADMAP:

* ``flat(n)``: one composite with n leaf parts, wired from one group port;
* ``nested(d)``: d levels of single-part delegation ending at a leaf;
* ``gen_chain(n)``: an n-deep class generalization chain;
* ``hub(k)``: a required port fanning out over k untyped links;
* ``composite``: a random well-formed hierarchy;
* ``fan2``, ``relay`` and ``outchain``: few classes, large instance graphs,
  for routing.

Check defects are injected one at a time and each maps to exactly one code;
a routing model may instead lose one provided-origin connector.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field


@dataclass
class ClassSpec:
    name: str
    kind: str = "active"
    general: str | None = None
    realizes: list[str] = field(default_factory=list)
    uses: list[str] = field(default_factory=list)
    parts: list[tuple[str, str, int]] = field(default_factory=list)
    ports: list[tuple[str, str, bool]] = field(default_factory=list)
    # (end1, end2, association); ends are "self.port", "part" or "part.port"
    connectors: list[tuple[str, str, str | None]] = field(default_factory=list)


@dataclass
class Spec:
    interfaces: list[tuple[str, list[str], bool]] = field(default_factory=list)
    classes: list[ClassSpec] = field(default_factory=list)
    # (name, end1 type, end1 navigable, end2 type, end2 navigable)
    assocs: list[tuple[str, str, bool, str, bool]] = field(default_factory=list)
    root: str | None = None

    def add_interface(self, name: str, generals: list[str] | None = None,
                      group: bool = False) -> str:
        self.interfaces.append((name, list(generals or []), group))
        return name

    def add_class(self, cls: ClassSpec) -> ClassSpec:
        self.classes.append(cls)
        return cls

    def find(self, name: str) -> ClassSpec:
        return next(c for c in self.classes if c.name == name)

    def to_dsl(self) -> str:
        lines: list[str] = []
        for name, generals, group in self.interfaces:
            head = f"interface {name}" + (" group" if group else "")
            if generals:
                head += " : " + ", ".join(generals)
            body = "{}" if group else f"{{ op op{name}; }}"
            lines.append(f"{head} {body}")
        for cls in self.classes:
            head = f"class {cls.name} {cls.kind}"
            if cls.general:
                head += f" : {cls.general}"
            lines.append(head + " {")
            if cls.realizes:
                lines.append(f"  realizes {', '.join(cls.realizes)};")
            if cls.uses:
                lines.append(f"  uses {', '.join(cls.uses)};")
            for name, type_, mult in cls.parts:
                lines.append(f"  part {name}: {type_}" + (f" x{mult}" if mult != 1 else "") + ";")
            for name, contract, rev in cls.ports:
                lines.append(f"  port {name}: {contract}" + (" reversed" if rev else "") + ";")
            for end1, end2, assoc in cls.connectors:
                lines.append(f"  connector {end1} , {end2}" + (f" via {assoc}" if assoc else "") + ";")
            lines.append("}")
        for name, t1, n1, t2, n2 in self.assocs:
            lines.append(f"assoc {name} ( {t1}{' nav' if n1 else ''} , {t2}{' nav' if n2 else ''} );")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def end(text: str) -> dict:
            head, _, port = text.partition(".")
            if head == "self":
                return {"port": port}
            return {"part": head, "port": port} if port else {"part": head}

        doc: dict = {"formatVersion": 1, "interfaces": [
            {"name": n, "group": g, "generals": gs, "operations": [] if g else [f"op{n}"]}
            for n, gs, g in self.interfaces]}
        doc["classes"] = [{
            "name": c.name, "kind": c.kind, "generals": [c.general] if c.general else [],
            "realizes": c.realizes, "uses": c.uses, "attributes": [],
            "parts": [{"name": n, "type": t, "multiplicity": m} for n, t, m in c.parts],
            "ports": [{"name": n, "contract": k, "reversed": r} for n, k, r in c.ports],
            "connectors": [dict({"end1": end(e1), "end2": end(e2)},
                                **({"association": a} if a else {}))
                           for e1, e2, a in c.connectors],
        } for c in self.classes]
        doc["associations"] = [
            {"name": n, "end1": {"type": t1, "navigable": n1}, "end2": {"type": t2, "navigable": n2}}
            for n, t1, n1, t2, n2 in self.assocs]
        if self.root:
            doc["root"] = self.root
        return json.dumps(doc, indent=1) + "\n"


@dataclass
class Expected:
    """What compocheck must answer for one model, known by construction.

    ``codes`` is the set of diagnostic codes ``check`` reports; ``check``
    passes exactly when it is empty. ``delivered``, ``stuck`` and ``events``
    describe one simulation of ``root`` with ``injections`` fired ``rounds``
    times; an empty list means the default injection suite, as on the
    command line. ``input_error`` marks text that must not parse or must
    fail integrity validation.
    """

    codes: frozenset[str] = frozenset()
    root: str | None = None
    delivered: int = 0
    stuck: int = 0
    events: int = 0
    injections: list[tuple[str, str]] = field(default_factory=list)
    rounds: int = 1
    input_error: bool = False

    @property
    def passed(self) -> bool:
        return not self.codes


@dataclass
class Built:
    family: str
    size: int
    spec: Spec
    expected: Expected
    defect: str | None = None

    @property
    def label(self) -> str:
        return f"{self.family}-{self.size}" + (f"-{self.defect}" if self.defect else "")


# --- check-scale families -----------------------------------------------------


def flat(n: int, defect: str | None, rng: random.Random) -> Built:
    """One composite with n leaf parts, each reached from one group port."""
    spec = Spec()
    names = [spec.add_interface(f"F{i}") for i in range(n)]
    spec.add_interface("FG", names, group=True)
    for i, iface in enumerate(names):
        spec.add_class(ClassSpec(f"Leaf{i}", realizes=[iface]))
    top = spec.add_class(ClassSpec("Flat", ports=[("p", "FG", False)]))
    for i in range(n):
        top.parts.append((f"l{i}", f"Leaf{i}", 1))
        top.connectors.append(("self.p", f"l{i}", None))
    spec.root = "Flat"
    j = rng.randrange(1, n)
    if defect == "W010":      # one passive leaf among active siblings
        spec.find(f"Leaf{j}").kind = "passive"
    elif defect == "W009":    # passive composite holding active parts
        top.kind = "passive"
    elif defect == "W008":    # the group port no longer reaches F_j
        del top.connectors[j]
    elif defect == "W007":    # a second untyped link carrying F_j
        top.parts.append(("dup", f"Leaf{j}", 1))
        top.connectors.append(("self.p", "dup", None))
    elif defect == "W006":    # a link to a leaf outside the port's closure
        spec.add_interface("FX")
        spec.add_class(ClassSpec("Stray", realizes=["FX"]))
        top.parts.append(("stray", "Stray", 1))
        top.connectors.append(("self.p", "stray", None))
    elif defect == "W005":    # an untyped link between two parts
        top.connectors.append(("l0", f"l{j}", None))
    elif defect == "W000":    # a leaf that uses F_0 but has only a provided port
        leaf = spec.find(f"Leaf{j}")
        leaf.uses.append("F0")
        leaf.ports.append(("q", f"F{j}", False))
    routed = n - 1 if defect == "W008" else n
    return Built("flat", n, spec, _expected(defect, "Flat", delivered=routed, events=routed,
                                            stuck=n - routed), defect)


FLAT_DEFECTS = ("W000", "W005", "W006", "W007", "W008", "W009", "W010")


def nested(d: int, defect: str | None, rng: random.Random) -> Built:
    """d composites, each delegating its provided port to the next one."""
    spec = Spec()
    spec.add_interface("X")
    spec.add_class(ClassSpec("Z", realizes=["X"]))
    for level in range(d, 0, -1):
        inner = "Z" if level == d else f"R{level + 1}"
        target = "inner" if level == d else "inner.p"
        spec.add_class(ClassSpec(f"R{level}", parts=[("inner", inner, 1)],
                                 ports=[("p", "X", False)],
                                 connectors=[("self.p", target, None)]))
    spec.root = "R1"
    k = rng.randrange(1, d + 1)
    holder = spec.find(f"R{k}")
    if defect == "W009":      # passive composite holding an active part
        holder.kind = "passive"
    elif defect == "W010":    # an active composite gains a passive part
        spec.add_class(ClassSpec("PZ", kind="passive"))
        holder.parts.append(("pz", "PZ", 1))
    elif defect == "W007":    # a second untyped link carrying X
        holder.parts.append(("z2", "Z", 1))
        holder.connectors.append(("self.p", "z2", None))
    elif defect == "W006":    # a link to a leaf that provides something else
        spec.add_interface("Y")
        spec.add_class(ClassSpec("Q", realizes=["Y"]))
        holder.parts.append(("q", "Q", 1))
        holder.connectors.append(("self.p", "q", None))
    return Built("nested", d, spec, _expected(defect, "R1", delivered=1, events=d), defect)


NESTED_DEFECTS = ("W006", "W007", "W009", "W010")


def gen_chain(n: int, defect: str | None, rng: random.Random) -> Built:
    """An n-deep class generalization chain; every class has a provided port."""
    spec = Spec()
    spec.add_interface("H")
    spec.add_interface("U")
    for i in range(n):
        spec.add_class(ClassSpec(f"K{i}", general=f"K{i - 1}" if i else None,
                                 realizes=[] if i else ["H"], ports=[("p", "H", False)]))
    if defect == "W000":      # a use inherited by every descendant's provided port
        spec.find(f"K{rng.randrange(n)}").uses.append("U")
    # The most derived class inherits H from K0, so its port delivers to it.
    return Built("gen_chain", n, spec, _expected(defect, f"K{n - 1}", delivered=1, events=1),
                 defect)


GEN_CHAIN_DEFECTS = ("W000",)


def hub(k: int, defect: str | None, rng: random.Random) -> Built:
    """A hub whose required port fans out over k untyped links that split a
    3k-interface universe between k providers."""
    spec = Spec()
    universe = [spec.add_interface(f"U{i}") for i in range(3 * k)]
    spec.add_interface("All", universe, group=True)
    shuffled = universe[:]
    rng.shuffle(shuffled)
    subsets = [sorted(shuffled[3 * i:3 * i + 3]) for i in range(k)]
    if defect == "W007":      # provider 1 also realizes one of provider 0's interfaces
        subsets[1] = sorted(subsets[1] + [subsets[0][0]])
    elif defect == "W008":    # one interface of the closure is left unserved
        subsets[0] = subsets[0][1:]
    spec.add_class(ClassSpec("Hub", ports=[("r", "All", True)]))
    net = ClassSpec("Net", parts=[("hub", "Hub", 1)])
    for i, subset in enumerate(subsets):
        spec.add_class(ClassSpec(f"Prov{i}", realizes=subset))
        net.parts.append((f"t{i}", f"Prov{i}", 1))
        net.connectors.append(("hub.r", f"t{i}", None))
    spec.add_class(net)
    spec.root = "Net"
    return Built("hub", k, spec, _expected(defect, "Net"), defect)


HUB_DEFECTS = ("W007", "W008")


def composite(leaves: int, defect: str | None, rng: random.Random, depth: int = 4) -> Built:
    """A random well-formed hierarchy of about ``leaves`` leaf classes.

    Leaves realize fresh interfaces. Each composite exposes one or two
    provided ports whose contract (a group when needed) covers exactly what
    its children provide, wired with untyped inbound delegations. The root
    also gets an outbound relay and a typed sender.
    """
    spec = Spec()
    counter = {"i": 0, "c": 0}
    groups: dict[tuple[str, ...], str] = {}
    budget = [leaves]
    # (class, port) -> [(part, part multiplicity, child class or None, interfaces)]
    wiring: dict[tuple[str, str], list[tuple[str, int, str | None, list[str]]]] = {}
    multi_link_ports: list[tuple[str, int]] = []

    def interface() -> str:
        counter["i"] += 1
        return spec.add_interface(f"S{counter['i']}")

    def group(members: list[str]) -> str:
        key = tuple(sorted(members))
        if len(key) == 1:
            return key[0]
        if key not in groups:
            groups[key] = spec.add_interface(f"G{len(groups)}", list(key), group=True)
        return groups[key]

    def component(level: int, force: bool = False) -> tuple[ClassSpec, list[str]]:
        counter["c"] += 1
        name = f"C{counter['c']}"
        if not force and (level == 0 or budget[0] <= 1 or rng.random() < 0.35):
            budget[0] -= 1
            provided = sorted(interface() for _ in range(rng.randint(1, 3)))
            return spec.add_class(ClassSpec(name, realizes=provided)), provided
        cls = ClassSpec(name)
        children = [component(level - 1) for _ in range(rng.randint(2, 3))]
        for i, (child, _) in enumerate(children):
            cls.parts.append((f"p{i}", child.name, 2 if rng.random() < 0.15 else 1))
        order = list(range(len(children)))
        cut = rng.randint(1, len(children) - 1) if rng.random() < 0.4 else len(children)
        provided_all: list[str] = []
        for b, batch in enumerate(x for x in (order[:cut], order[cut:]) if x):
            union = sorted(set().union(*(children[i][1] for i in batch)))
            port = f"b{b}"
            cls.ports.append((port, group(union), False))
            links = wiring.setdefault((name, port), [])
            for i in batch:
                child, child_provided = children[i]
                mult = cls.parts[i][2]
                if child.parts:
                    for child_port, contract, _ in child.ports:
                        cls.connectors.append((f"self.{port}", f"p{i}.{child_port}", None))
                        links.append((f"p{i}", mult, child.name, [child_port]))
                else:
                    cls.connectors.append((f"self.{port}", f"p{i}", None))
                    links.append((f"p{i}", mult, None, child_provided))
            if len(links) >= 2:
                multi_link_ports.append((name, len(cls.connectors) - len(links)))
            provided_all.extend(union)
        spec.add_class(cls)
        return cls, sorted(provided_all)

    root, _ = component(depth, force=True)
    spec.root = root.name
    # An outbound relay and a typed sender on the root exercise the
    # association rules.
    relay_iface, out_iface = interface(), interface()
    spec.add_class(ClassSpec("Relay", ports=[("rq", relay_iface, True)]))
    root.parts.append(("rly", "Relay", 1))
    root.ports.append(("rbound", relay_iface, True))
    root.connectors.append(("rly.rq", "self.rbound", None))
    spec.add_class(ClassSpec("Sender"))
    root.parts.append(("snd", "Sender", 1))
    root.ports.append(("sbound", out_iface, True))
    spec.assocs.append(("itsOut", "Sender", False, out_iface, True))
    root.connectors.append(("snd", "self.sbound", "itsOut"))

    if defect == "W008" and not multi_link_ports:
        defect = "W009"       # no port has a second link to lose
    if defect == "W009":      # the root turns passive while its parts stay active
        root.kind = "passive"
    elif defect == "W010":    # the root gains a passive part
        spec.add_class(ClassSpec("PZ", kind="passive"))
        root.parts.append(("pz", "PZ", 1))
    elif defect == "W008":    # a port with several links loses its first one
        owner_name, first = multi_link_ports[rng.randrange(len(multi_link_ports))]
        end1, _, _ = spec.find(owner_name).connectors.pop(first)
        del wiring[(owner_name, end1[len("self."):])][0]
    elif defect == "W003":    # the typing association loses its navigable end
        spec.assocs[-1] = spec.assocs[-1][:4] + (False,)

    # Routing ground truth: a request for interface x arriving at a provided
    # port of class c follows the one link carrying x into every instance of
    # the part behind it.
    def route(cls_name: str, port: str, x: str) -> tuple[int, int, int]:
        for part, mult, child, carried in wiring.get((cls_name, port), []):
            if child is None:
                if x in carried:
                    return mult, 0, mult  # delivered, stuck, events
            else:
                child_port = carried[0]
                child_contract = next(k for n, k, _ in spec.find(child).ports if n == child_port)
                if x in closures[child_contract]:
                    d, s, e = route(child, child_port, x)
                    return mult * d, mult * s, mult + mult * e
        return 0, 1, 0

    closures = {name: set(generals) if group else {name}
                for name, generals, group in spec.interfaces}
    delivered = stuck = events = 0
    for port, contract, rev in root.ports:
        if rev:
            continue
        for x in sorted(closures[contract]):
            d, s, e = route(root.name, port, x)
            delivered, stuck, events = delivered + d, stuck + s, events + e
    return Built("composite", leaves, spec, _expected(defect, root.name, delivered=delivered,
                                                      stuck=stuck, events=events), defect)


COMPOSITE_DEFECTS = ("W003", "W008", "W009", "W010")


def _expected(defect: str | None, root: str | None, delivered: int = 0, stuck: int = 0,
              events: int = 0) -> Expected:
    return Expected(codes=frozenset([defect] if defect else []), root=root,
                    delivered=delivered, stuck=stuck, events=events)


# --- route-fanout families ----------------------------------------------------


def fan2(k1: int, k2: int, drop: bool, rounds: int) -> Built:
    """Two-level fan-out: the root's port reaches k1 mid instances, each of
    which reaches k2 instances of two leaf kinds, one per interface."""
    spec = Spec()
    spec.add_interface("X1")
    spec.add_interface("X2")
    spec.add_interface("XG", ["X1", "X2"], group=True)
    spec.add_class(ClassSpec("LA", realizes=["X1"]))
    spec.add_class(ClassSpec("LB", realizes=["X2"]))
    spec.add_class(ClassSpec("Mid", parts=[("a", "LA", k2), ("b", "LB", k2)],
                             ports=[("p", "XG", False)],
                             connectors=[("self.p", "a", None), ("self.p", "b", None)]))
    top = spec.add_class(ClassSpec("Top", parts=[("m", "Mid", k1)],
                                   connectors=[("self.p", "m.p", None)]))
    per_x = (k1 * k2, 0, k1 + k1 * k2)
    outcomes = [per_x, per_x, _sink(spec, top, ["X1", "X2"], drop)]
    return _routed("fan2", 2 + k1 + 2 * k1 * k2, spec, "Top", outcomes, rounds, drop,
                   frozenset({"W008"} if drop else ()))


def relay(mults: list[int], drop: bool, rounds: int) -> Built:
    """A relay chain; level i holds ``mults[i]`` instances of the next level,
    and the last level holds the leaf."""
    spec = Spec()
    spec.add_interface("X")
    spec.add_class(ClassSpec("Z", realizes=["X"]))
    depth = len(mults)
    for level in range(depth, 0, -1):
        inner = "Z" if level == depth else f"R{level + 1}"
        target = "inner" if level == depth else "inner.p"
        spec.add_class(ClassSpec(f"R{level}", parts=[("inner", inner, mults[level - 1])],
                                 ports=[("p", "X", False)],
                                 connectors=[("self.p", target, None)]))
    counts = [math.prod(mults[:i + 1]) for i in range(depth)]
    top = spec.find("R1")
    top.ports.clear()  # _sink gives R1 a port p that carries X and XS
    outcomes = [(counts[-1], 0, sum(counts)), _sink(spec, top, ["X"], drop)]
    return _routed("relay", 2 + sum(counts), spec, "R1", outcomes, rounds, drop,
                   frozenset({"W008"} if drop else ()))


def outchain(mults: list[int], drop: bool, rounds: int) -> Built:
    """Required ports relayed outward through ``len(mults)`` levels to the
    root's boundary; every innermost sender injects once per round."""
    spec = Spec()
    spec.add_interface("Y")
    spec.add_class(ClassSpec("Src", ports=[("r", "Y", True)]))
    depth = len(mults)
    for level in range(depth, 0, -1):
        inner = "Src" if level == depth else f"O{level + 1}"
        spec.add_class(ClassSpec(f"O{level}", parts=[("s", inner, mults[level - 1])],
                                 ports=[("r", "Y", True)],
                                 connectors=[("s.r", "self.r", None)]))
    senders = ["O1"]
    for mult in mults:
        senders = [f"{s}.s[{i}]" if mult > 1 else f"{s}.s" for s in senders for i in range(mult)]
    n = len(senders)
    outcomes = [_sink(spec, spec.find("O1"), [], drop), (n, 0, n * (depth + 1))]
    built = _routed("outchain", 2 + sum(math.prod(mults[:i + 1]) for i in range(depth)),
                    spec, "O1", outcomes, rounds, drop)
    # Explicit injections replace the default suite, which is just O1.p:XS here.
    built.expected.injections = [("O1.p", "XS")] + [(f"{s}.r", "Y") for s in senders]
    return built


def _sink(spec: Spec, top: ClassSpec, carried: list[str], drop: bool) -> tuple[int, int, int]:
    """Give the root a provided port ``p`` carrying ``carried`` plus XS, with
    XS going to a sink part. Dropping that link strands one XS request per
    round at ``p`` and leaves the rest of the routing work as it was, so the
    seed's choice of dropped models barely moves the timings. When ``p``
    carries other interfaces the drop is a completeness finding (W008).
    Returns the outcome of one XS request."""
    spec.add_interface("XS")
    contract = "XS"
    if carried:
        contract = spec.add_interface("XP", carried + ["XS"], group=True)
    spec.add_class(ClassSpec("Sink", realizes=["XS"]))
    top.parts.append(("sink", "Sink", 1))
    top.ports.insert(0, ("p", contract, False))
    if drop:
        return 0, 1, 0
    top.connectors.append(("self.p", "sink", None))
    return 1, 0, 1


def _routed(family: str, size: int, spec: Spec, root: str,
            outcomes: list[tuple[int, int, int]], rounds: int, drop: bool,
            codes: frozenset[str] = frozenset()) -> Built:
    delivered, stuck, events = (rounds * sum(o[i] for o in outcomes) for i in range(3))
    expected = Expected(codes=codes, root=root, delivered=delivered, stuck=stuck,
                        events=events, rounds=rounds)
    return Built(family, size, spec, expected, "drop" if drop else None)
