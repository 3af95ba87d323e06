"""Independent brute-force implementations used to cross-check the package.

Everything here re-derives results from first principles (one-step expansion
to a fixpoint, exhaustive membership enumeration, direct pairwise
intersection, plain DFS) and never calls the code paths it checks.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from compocheck import ingest
from compocheck.diagnostics import SourceSpan
from compocheck.ingest import ParseError
from compocheck.model import (Association, AssociationEnd, Attribute, Class, ClassKind, Connector,
                              EndRef, Interface, Model, Part, Port)


def one_step_generals(model: Model, name: str) -> list[str]:
    element = model.find_interface(name) or model.find_class(name)
    return list(element.generals) if element is not None else []


def parents_fixpoint(model: Model, name: str) -> set[str]:
    """Ancestors by repeated one-step expansion until nothing changes."""
    closure: set[str] = set(one_step_generals(model, name))
    while True:
        grown = set(closure)
        for member in closure:
            grown.update(one_step_generals(model, member))
        if grown == closure:
            break
        closure = grown
    closure.discard(name)
    return closure


def _is_plain_interface(model: Model, name: str) -> bool:
    iface = model.find_interface(name)
    return iface is not None and not iface.is_group


def interface_closure_oracle(model: Model, name: str) -> set[str]:
    candidates = {name} | parents_fixpoint(model, name)
    return {n for n in candidates if _is_plain_interface(model, n)}


def class_interfaces_oracle(model: Model, class_name: str, attribute: str = "realizes") -> set[str]:
    """The closures of what the class and its ancestors realize (or, with
    ``attribute="usages"``, use)."""
    ancestry = {class_name} | parents_fixpoint(model, class_name)
    realized: set[str] = set()
    for cname in ancestry:
        cls = model.find_class(cname)
        if cls is not None:
            realized.update(getattr(cls, attribute))
    out: set[str] = set()
    for r in realized:
        out |= {n for n in {r} | parents_fixpoint(model, r) if _is_plain_interface(model, n)}
    return out


def port_interfaces_oracle(model: Model, port: Port) -> set[str]:
    return interface_closure_oracle(model, port.contract)


def intersection_by_enumeration(model: Model, left: set[str], right: set[str]) -> set[str]:
    """Membership test against every interface declared in the model."""
    return {i.name for i in model.interfaces if i.name in left and i.name in right}


def pairwise_disjoint_direct(sets) -> bool:
    for a, b in itertools.combinations(sets, 2):
        if set(a) & set(b):
            return False
    return True


def has_cycle_dfs(pairs: list[tuple[str, list[str]]]) -> bool:
    """Plain recursive-coloring DFS over a name -> successors graph."""
    graph = {name: [g for g in succs if any(g == n for n, _ in pairs)]
             for name, succs in pairs}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}

    def visit(node: str) -> bool:
        color[node] = GRAY
        for succ in graph[node]:
            if color[succ] == GRAY:
                return True
            if color[succ] == WHITE and visit(succ):
                return True
        color[node] = BLACK
        return False

    return any(color[name] == WHITE and visit(name) for name in graph)


def _part_ids(owner_id: str, part: Part) -> list[str]:
    if part.multiplicity == 1:
        return [f"{owner_id}.{part.name}"]
    return [f"{owner_id}.{part.name}[{i}]" for i in range(part.multiplicity)]


def end_oracle(model: Model, owner: Class, ref: EndRef) -> tuple[Part | None, Port | None, bool]:
    """A connector end as (part, port, on composite), by linear lookups: no
    part for a port of the owner itself, no port for a bare part."""
    if ref.part is None:
        return None, owner.find_port(ref.port), True
    part = owner.find_part(ref.part)
    if ref.port is None:
        return part, None, False
    return part, model.find_class(part.type).find_port(ref.port), False


def end_interfaces_oracle(model: Model, end) -> set[str]:
    """A port end's contract closure, or what a part end's class provides."""
    part, port, _ = end
    if port is not None:
        return port_interfaces_oracle(model, port)
    return class_interfaces_oracle(model, part.type)


def direction_oracle(end1, end2) -> tuple[str, int | None]:
    """The direction table over two ends from :func:`end_oracle`: the link's
    kind (``"part-part"``, ``"delegation"`` when exactly one end is a port of
    the owner, ``"assembly"`` otherwise) and the index (0 or 1) of the end
    requests leave from, None for a forbidden direction combination.

    A delegation between ports needs two provided ports (requests enter at the
    owner's) or two required ones (requests leave the inner port); an
    assembly between ports needs one of each and starts at the required one.
    A link between a part and a port starts at the port when requests enter
    the link through it (a part's required port, the owner's provided port),
    and at the part otherwise. A part-part link starts at its first end.
    """
    (_, port1, own1), (_, port2, own2) = end1, end2
    if port1 is None and port2 is None:
        return "part-part", 0
    if port1 is not None and port2 is not None:
        if own1 != own2:
            if port1.reversed != port2.reversed:
                return "delegation", None
            inbound = not port1.reversed
            return "delegation", 0 if own1 == inbound else 1
        if port1.reversed == port2.reversed:
            return "assembly", None
        return "assembly", 0 if port1.reversed else 1
    at = 0 if port1 is not None else 1
    _, port, own = (end1, end2)[at]
    return "delegation" if own else "assembly", at if port.reversed != own else 1 - at


def expected_untyped_bindings(model: Model, root_name: str) -> set[tuple[str, str, str, str]]:
    """The (holder, association, target, interface) tuples every untyped
    connector must contribute, derived with the oracle closures and
    :func:`direction_oracle`. Part-part links contribute nothing (their
    transported set is not computed) and neither do forbidden combinations."""
    out: set[tuple[str, str, str, str]] = set()

    def end_ids(owner_id: str, owner_cls: Class, ref) -> list[str]:
        if ref.part is None:
            return [f"{owner_id}.{ref.port}"]
        part = owner_cls.find_part(ref.part)
        bases = _part_ids(owner_id, part)
        if ref.port is not None:
            return [f"{base}.{ref.port}" for base in bases]
        return bases

    def walk(cls: Class, cid: str) -> None:
        for part in cls.parts:
            part_cls = model.find_class(part.type)
            for child_id in _part_ids(cid, part):
                walk(part_cls, child_id)
        for conn in cls.connectors:
            if conn.association is not None:
                continue
            ends = end_oracle(model, cls, conn.end1), end_oracle(model, cls, conn.end2)
            kind, start = direction_oracle(*ends)
            if kind == "part-part" or start is None:
                continue
            refs = conn.end1, conn.end2
            transported = intersection_by_enumeration(
                model, end_interfaces_oracle(model, ends[0]), end_interfaces_oracle(model, ends[1]))
            for holder in end_ids(cid, cls, refs[start]):
                for target in end_ids(cid, cls, refs[1 - start]):
                    for iface in transported:
                        out.add((holder, "deleg_" + iface, target, iface))

    root_cls = model.find_class(root_name)
    walk(root_cls, root_cls.name)
    return out


def next_request_oracle(graph) -> int | None:
    """The request the scheduler must move next: of the in-transit requests,
    the one whose current holder was created first, ties broken by request id.
    ``None`` when no request is in transit. Reads creation order straight off
    the instance tables and scans every request."""
    def created(holder: str) -> int:
        if holder in graph.ports:
            return graph.ports[holder].seq
        return graph.components[holder].seq

    pending = [(created(r.location), r.id) for r in graph.requests.values()
               if r.status.value == "inTransit"]
    return min(pending)[1] if pending else None


def hop_oracle(graph, request) -> tuple[str | None, list[str], list[tuple[str, str | None]]]:
    """Where ``request`` goes on its next step, by rescanning the whole binding
    list: the binding name, the targets, and per target the status and stuck
    reason the request (or its clone) has on arrival. A request that cannot
    leave its holder gives no targets and one ``("stuck", reason)`` outcome.

    Out of a port, ``deleg_I`` bindings win over typed ones; out of a
    component, the first matching binding's name wins. Only bindings with the
    winning name are followed, in binding order. Component receivers are
    judged by :func:`class_interfaces_oracle`.
    """
    source, interface = request.location, request.interface
    candidates = [b for b in graph.bindings if b.holder == source and b.interface == interface]
    port = graph.ports.get(source)
    if port is not None:
        deleg = [b for b in candidates if b.association == "deleg_" + interface]
        candidates = deleg or candidates
    if candidates:
        via = candidates[0].association
        targets = [b.target for b in candidates if b.association == via]
    elif port is None:
        return None, [], [("stuck", f"component '{source}' has no channel for interface "
                                    f"'{interface}'")]
    elif not port.declaration.reversed:
        owner_cls = graph.typing.model.find_class(graph.components[port.owner].class_name)
        if owner_cls.parts:
            return None, [], [("stuck", f"no forwarding destination for interface "
                                        f"'{interface}' inside composite '{owner_cls.name}'")]
        via, targets = None, [port.owner]
    elif port.owner == graph.root_id:  # a root class may itself be named "environment"
        return None, ["environment"], [("delivered", None)]
    else:
        return None, [], [("stuck", "required port has no outgoing channel for interface "
                                    f"'{interface}'")]
    outcomes: list[tuple[str, str | None]] = []
    for target in targets:
        if target in graph.components:
            class_name = graph.components[target].class_name
            if interface in class_interfaces_oracle(graph.typing.model, class_name):
                outcomes.append(("delivered", None))
            else:
                outcomes.append(("stuck", f"component '{target}' of class '{class_name}' "
                                          f"does not provide interface '{interface}'"))
        else:
            outcomes.append(("inTransit", None))
    return via, targets, outcomes


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize_oracle(text: str, filename: str) -> tuple[list[tuple], list[ParseError]]:
    """The DSL tokens ``(kind, value, line, column)`` and lexical errors, from a
    walk over the text one character at a time. A ``//`` comment runs to the
    next newline without moving the column, so an ``eof`` after a trailing
    comment sits where the comment starts."""
    tokens: list[tuple] = []
    errors: list[ParseError] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "{}():,;.":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        match = _IDENT_RE.match(text, i)
        if match:
            word = match.group(0)
            tokens.append(("ident", word, line, col))
            i = match.end()
            col += len(word)
            continue
        errors.append(ParseError(SourceSpan(filename, line, col), f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(("eof", "", line, col))
    return tokens, errors


# The record each JSON schema table describes, called with the values of the
# table's fields in field order.
_JSON_RECORDS = {
    ingest._INTERFACE: lambda name, group, generals, operations: Interface(
        name, generals, group, operations),
    ingest._ATTRIBUTE: Attribute, ingest._PART: Part, ingest._PORT: Port,
    ingest._END_REF: EndRef, ingest._CONNECTOR: Connector, ingest._CLASS: Class,
    ingest._ASSOCIATION_END: AssociationEnd, ingest._ASSOCIATION: Association,
    ingest._MODEL: Model,
}
JSON_TABLES = list(_JSON_RECORDS)


def table_build(table, raw):
    """The record of a JSON element as its schema table gives it, field by
    field: each field's type test applied to the field's value (its default
    when the key is absent), in table order, raising ``ingest._Rejected`` at
    the first test that fails. A field holding nested elements applies the
    nested kind's builder, which is compared with this reference on the nested
    elements themselves."""
    if type(raw) is not dict:
        raise ingest._Rejected
    return _JSON_RECORDS[table](*[test(raw.get(key, default))
                                  for key, default, test, *_ in table.fields])


# --- rule reference ------------------------------------------------------------
#
# One definition per rule code W000-W011, each an invariant over every link,
# port or composite of a model that passed integrity and deleg synthesis,
# written with the closure oracles above and linear lookups. Each gives the
# (code, subject, related) triples of the findings its rule must report.


@dataclass
class LinkFacts:
    """A connector as the reference reads it: its element path, the
    connector, both ends from :func:`end_oracle`, its kind and origin index
    from :func:`direction_oracle`, and the declared association it names
    (None when untyped or undeclared)."""

    path: str
    connector: Connector
    ends: tuple
    kind: str
    origin: int | None
    association: Association | None

    @property
    def start(self):
        return self.ends[self.origin]

    @property
    def far(self):
        return self.ends[1 - self.origin]

    @property
    def from_part(self) -> bool:
        return self.origin is not None and self.start[1] is None


def links_oracle(model: Model) -> list[LinkFacts]:
    out = []
    for cls in model.classes:
        for idx, conn in enumerate(cls.connectors):
            ends = end_oracle(model, cls, conn.end1), end_oracle(model, cls, conn.end2)
            assoc = None if conn.association is None else model.find_association(conn.association)
            out.append(LinkFacts(f"{cls.name}#{idx}", conn, ends, *direction_oracle(*ends), assoc))
    return out


def provided_oracle(model: Model, name: str) -> set[str]:
    """An interface's closure, or what a class provides; nothing for other names."""
    if model.find_interface(name) is not None:
        return interface_closure_oracle(model, name)
    if model.find_class(name) is not None:
        return class_interfaces_oracle(model, name)
    return set()


def directed_ends_oracle(assoc: Association) -> tuple[AssociationEnd, AssociationEnd] | None:
    """(start, pointed) of an association: requests travel toward a navigable
    end, end2 when both are; None when neither is."""
    if assoc.end2.navigable:
        return assoc.end1, assoc.end2
    if assoc.end1.navigable:
        return assoc.end2, assoc.end1
    return None


def transported_oracle(model: Model, link: LinkFacts) -> set[str] | None:
    """What the link can carry, None where that is not computable (part-part
    and forbidden links, associations with no navigable end): the interfaces
    both ends provide, or, when typed, the port end's closure narrowed to the
    pointed type's (the origin's port, else the far end's)."""
    if link.kind == "part-part" or link.origin is None:
        return None
    if link.association is None:
        return intersection_by_enumeration(model, end_interfaces_oracle(model, link.start),
                                           end_interfaces_oracle(model, link.far))
    directed = directed_ends_oracle(link.association)
    if directed is None:
        return None
    port = link.start[1] if link.start[1] is not None else link.far[1]
    return port_interfaces_oracle(model, port) & provided_oracle(model, directed[1].type)


def conforms_oracle(model: Model, end_type: str, assoc_type: str) -> bool:
    """An association end typed ``assoc_type`` may govern a link end of
    classifier ``end_type``: an interface the classifier provides, or, for a
    class end, the class itself or an ancestor."""
    if model.find_interface(assoc_type) is not None:
        return assoc_type in provided_oracle(model, end_type)
    return model.find_interface(end_type) is None and \
        assoc_type in {end_type} | parents_fixpoint(model, end_type)


def fits_oracle(model: Model, end, assoc_type: str) -> bool:
    """An association end fits a link end: a port must carry the whole closure
    of an interface, a part's class must conform to it."""
    part, port, _ = end
    if port is not None:
        return model.find_interface(assoc_type) is not None and \
            interface_closure_oracle(model, assoc_type) <= port_interfaces_oracle(model, port)
    return conforms_oracle(model, part.type, assoc_type)


def association_admitted(model: Model, link: LinkFacts) -> bool:
    """The typing association has a direction and a kind the link's shape
    admits: a navigable end; two navigable ends only between two classes,
    on a part-part link; otherwise interface ends wherever a port governs
    them, which is both ends unless a part sends to a port (then the pointed
    end)."""
    assoc = link.association
    ends = assoc.end1, assoc.end2
    if not any(end.navigable for end in ends):
        return False
    if all(end.navigable for end in ends):
        return link.kind == "part-part" and all(model.find_class(e.type) is not None for e in ends)
    if link.kind == "part-part":
        return True
    start, pointed = directed_ends_oracle(assoc)
    return model.find_interface(pointed.type) is not None and \
        (link.from_part or model.find_interface(start.type) is not None)


def association_fits(model: Model, link: LinkFacts) -> bool:
    """The ends of an admitted typing association fit the link's: some
    orientation of a bidirectional one matches the two parts; otherwise the
    start end fits the origin, the pointed end the far end and, out of a
    port, the pointed type is transported."""
    assoc = link.association
    if assoc.end1.navigable and assoc.end2.navigable:
        (part1, _, _), (part2, _, _) = link.ends
        return any(conforms_oracle(model, part1.type, a.type)
                   and conforms_oracle(model, part2.type, b.type)
                   for a, b in ((assoc.end1, assoc.end2), (assoc.end2, assoc.end1)))
    start, pointed = directed_ends_oracle(assoc)
    return fits_oracle(model, link.start, start.type) \
        and fits_oracle(model, link.far, pointed.type) \
        and (link.from_part or pointed.type in transported_oracle(model, link))


def _outgoing_oracle(links: list[LinkFacts], port: Port) -> list[LinkFacts]:
    return [link for link in links if link.origin is not None and link.start[1] is port]


def w000_reference(model, links):
    """A port is bidirectional when its closure holds an interface the owner
    both realizes and uses, or, for a provided port, one the owner uses, or
    when the owner uses an interface no required port of it carries."""
    out = set()
    for cls in model.classes:
        used = class_interfaces_oracle(model, cls.name, "usages")
        realized = class_interfaces_oracle(model, cls.name)
        required = set().union(*(port_interfaces_oracle(model, p) for p in cls.ports
                                 if p.reversed))
        out |= {("W000", f"{cls.name}.{port.name}", ()) for port in cls.ports
                if port_interfaces_oracle(model, port) & used & realized
                or (not port.reversed and (port_interfaces_oracle(model, port) & used
                                           or used - required))}
    return out


def w001_reference(model, links):
    """A delegation link between ports of opposite directions."""
    return {("W001", link.path, ()) for link in links
            if link.origin is None and link.kind == "delegation"}


def w002_reference(model, links):
    """An assembly link between ports of the same direction."""
    return {("W002", link.path, ()) for link in links
            if link.origin is None and link.kind == "assembly"}


def w003_reference(model, links):
    """A typed link whose association is not admitted, or, out of a part,
    whose association ends do not fit."""
    return {("W003", link.path, (link.association.name,)) for link in links
            if link.association is not None and link.origin is not None
            and (not association_admitted(model, link)
                 or link.from_part and not association_fits(model, link))}


def w004_reference(model, links):
    """A typed link out of a port whose admitted association does not fit."""
    return {("W004", link.path, (link.association.name,)) for link in links
            if link.association is not None and link.origin is not None and not link.from_part
            and association_admitted(model, link) and not association_fits(model, link)}


def w005_reference(model, links):
    """A link out of a part whose connector names no association."""
    return {("W005", link.path, ()) for link in links
            if link.from_part and link.connector.association is None}


def w006_reference(model, links):
    """A link whose transported set is computable and empty."""
    return {("W006", link.path, ()) for link in links
            if transported_oracle(model, link) == set()}


def w007_reference(model, links):
    """A port with two untyped links out of it that transport a common interface."""
    out = set()
    for cls in model.classes:
        for port in cls.ports:
            untyped = [link for link in _outgoing_oracle(links, port)
                       if link.connector.association is None]
            if not pairwise_disjoint_direct(transported_oracle(model, link) for link in untyped):
                out.add(("W007", f"{cls.name}.{port.name}", tuple(link.path for link in untyped)))
    return out


def w008_reference(model, links):
    """A port with links out of it that together miss part of its closure."""
    out = set()
    for cls in model.classes:
        for port in cls.ports:
            outgoing = _outgoing_oracle(links, port)
            carried = set().union(*(transported_oracle(model, link) or set()
                                    for link in outgoing))
            if outgoing and not port_interfaces_oracle(model, port) <= carried:
                out.add(("W008", f"{cls.name}.{port.name}", tuple(link.path for link in outgoing)))
    return out


def _part_kinds(model, cls) -> list[tuple[str, ClassKind]]:
    """(element path, kind) of each part of ``cls`` whose class is declared."""
    return [(f"{cls.name}.{part.name}", model.find_class(part.type).kind) for part in cls.parts
            if model.find_class(part.type) is not None]


def w009_reference(model, links):
    """A passive composite with a part that is not passive."""
    out = set()
    for cls in model.classes:
        offenders = tuple(p for p, kind in _part_kinds(model, cls) if kind != ClassKind.PASSIVE)
        if cls.kind == ClassKind.PASSIVE and offenders:
            out.add(("W009", cls.name, offenders))
    return out


def w010_reference(model, links):
    """An active composite whose parts are neither all passive nor all active
    or protected; the offenders are the parts that are neither active nor
    protected."""
    out = set()
    for cls in model.classes:
        kinds = _part_kinds(model, cls)
        offenders = tuple(p for p, kind in kinds
                          if kind not in (ClassKind.ACTIVE, ClassKind.PROTECTED))
        if cls.kind == ClassKind.ACTIVE and offenders \
                and any(kind != ClassKind.PASSIVE for _, kind in kinds):
            out.add(("W010", cls.name, offenders))
    return out


def w011_reference(model, links):
    """An observer composite with a part that is not an observer."""
    out = set()
    for cls in model.classes:
        offenders = tuple(p for p, kind in _part_kinds(model, cls) if kind != ClassKind.OBSERVER)
        if cls.kind == ClassKind.OBSERVER and offenders:
            out.add(("W011", cls.name, offenders))
    return out


RULE_REFERENCE = {
    "W000": w000_reference, "W001": w001_reference, "W002": w002_reference,
    "W003": w003_reference, "W004": w004_reference, "W005": w005_reference,
    "W006": w006_reference, "W007": w007_reference, "W008": w008_reference,
    "W009": w009_reference, "W010": w010_reference, "W011": w011_reference,
}


def rule_reference(model: Model) -> dict[str, set[tuple[str, str, tuple[str, ...]]]]:
    """The findings of every rule code on a synthesized model, by code."""
    links = links_oracle(model)
    return {code: reference(model, links) for code, reference in RULE_REFERENCE.items()}
