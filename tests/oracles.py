"""Independent brute-force implementations used to cross-check the package.

Everything here re-derives results from first principles (one-step expansion
to a fixpoint, exhaustive membership enumeration, direct pairwise
intersection, plain DFS) and never calls the code paths it checks.
"""

from __future__ import annotations

import itertools
import re

from compocheck import ingest
from compocheck.diagnostics import SourceSpan
from compocheck.ingest import ParseError
from compocheck.model import (Association, AssociationEnd, Attribute, Class, Connector, EndRef,
                              Interface, Model, Part, Port)


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


def class_interfaces_oracle(model: Model, class_name: str) -> set[str]:
    ancestry = {class_name} | parents_fixpoint(model, class_name)
    realized: set[str] = set()
    for cname in ancestry:
        cls = model.find_class(cname)
        if cls is not None:
            realized.update(cls.realizes)
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


def expected_untyped_bindings(model: Model, root_name: str) -> set[tuple[str, str, str, str]]:
    """The (holder, association, target, interface) tuples every untyped
    connector must contribute, derived with the oracle closures and a literal
    reading of the direction table. Part-part links contribute nothing (their
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

    def end_info(owner_cls: Class, ref):
        """(is_port, reversed, on_composite, interface set)."""
        if ref.part is None:
            port = owner_cls.find_port(ref.port)
            return True, port.reversed, True, port_interfaces_oracle(model, port)
        part = owner_cls.find_part(ref.part)
        if ref.port is not None:
            port = model.find_class(part.type).find_port(ref.port)
            return True, port.reversed, False, port_interfaces_oracle(model, port)
        return False, False, False, class_interfaces_oracle(model, part.type)

    def origin_index(info1, info2) -> int | None:
        (p1, r1, c1, _), (p2, r2, c2, _) = info1, info2
        if p1 and p2:
            if c1 != c2:
                if r1 != r2:
                    return None  # forbidden mixed delegation
                if r1:  # outbound: starts at the inner (part-side) port
                    return 1 if not c1 else 2
                return 1 if c1 else 2  # inbound: starts at the composite port
            if r1 == r2:
                return None  # forbidden same-direction assembly
            return 1 if r1 else 2  # assembly starts at the required port
        port_first = p1
        info_port = info1 if port_first else info2
        _, rev, on_comp, _ = info_port
        port_index = 1 if port_first else 2
        part_index = 2 if port_first else 1
        if on_comp:
            return port_index if not rev else part_index
        return port_index if rev else part_index

    def walk(cls: Class, cid: str) -> None:
        for part in cls.parts:
            part_cls = model.find_class(part.type)
            for child_id in _part_ids(cid, part):
                walk(part_cls, child_id)
        for conn in cls.connectors:
            if conn.association is not None:
                continue
            if conn.end1.part is not None and conn.end1.port is None \
                    and conn.end2.part is not None and conn.end2.port is None:
                continue  # part-part: no transported set, no default bindings
            info1 = end_info(cls, conn.end1)
            info2 = end_info(cls, conn.end2)
            start = origin_index(info1, info2)
            if start is None:
                continue
            origin_ref, far_ref = (conn.end1, conn.end2) if start == 1 else (conn.end2, conn.end1)
            transported = intersection_by_enumeration(model, info1[3], info2[3])
            for holder in end_ids(cid, cls, origin_ref):
                for target in end_ids(cid, cls, far_ref):
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
                                  for key, default, test, _ in table.fields])
