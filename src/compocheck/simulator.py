"""Instantiation of composite structures and default request forwarding.

A composite class acts as an initialization scheme: :func:`instantiate` builds
the component instances (parts expanded by multiplicity), one port instance
per (component, port declaration), and a binding table entry per connector and
transported interface. Untyped connectors bind under the per-interface
``deleg_I`` associations, typed connectors under their own association name;
connectors starting at a part bind an attribute of the component instance.

Requests then travel one hop at a time. Only one forwarding action fires per
step: the pending request whose holder was instantiated earliest (ports and
components are totally ordered by creation), which makes every run
deterministic. A request arriving at a component is delivered when the
component's class provides its interface and stuck otherwise; a provided port
of a structureless component hands requests to its owner; a required port of
the root instance hands them to the environment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .model import Class, Model, Port, deleg_name
from .rules import check_model, prepare, run_rules  # check_model: perfbench's tracer patches it
from .type_system import LinkKind, TypingIndex

ENVIRONMENT = "environment"


class SimError(Exception):
    pass


class RequestStatus(str, Enum):
    IN_TRANSIT = "inTransit"
    DELIVERED = "delivered"
    STUCK = "stuck"


@dataclass
class ComponentInstance:
    id: str
    class_name: str
    parent: str | None
    seq: int


@dataclass
class PortInstance:
    id: str
    owner: str
    declaration: Port
    seq: int


@dataclass
class DelegBinding:
    holder: str
    association: str
    target: str
    interface: str


@dataclass
class Request:
    id: int
    interface: str
    operation: str
    location: str
    hops: int = 0
    status: RequestStatus = RequestStatus.IN_TRANSIT
    stuck_reason: str | None = None
    visited_ports: set[str] = field(default_factory=set)
    path: list[str] = field(default_factory=list)


@dataclass
class TraceEvent:
    step: int
    request: int
    from_: str
    to: str
    via: str | None

    def to_dict(self) -> dict:
        return {"step": self.step, "request": self.request,
                "from": self.from_, "to": self.to, "via": self.via}


@dataclass
class Trace:
    events: list[TraceEvent]
    final_statuses: dict[int, str]

    def status_counts(self) -> dict[str, int]:
        counts = {s.value: 0 for s in RequestStatus}
        for status in self.final_statuses.values():
            counts[status] += 1
        return counts


@dataclass
class SafetyViolation:
    request: int
    reason: str
    path: list[str]


@dataclass
class SafetyReport:
    passed: bool
    violations: list[SafetyViolation]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"request": v.request, "reason": v.reason, "path": list(v.path)}
                for v in self.violations
            ],
        }


class InstanceGraph:
    """Mutable runtime state: instances, bindings and in-flight requests.

    ``typing`` is the typing index the graph was built from; the model must
    not change while the graph is in use.
    ``part_instances`` lists the component ids of each part, keyed by
    (parent id, part name), in creation order.

    Only :func:`inject` and :func:`step` change a request's status or
    location, and the run queue holds exactly the in-transit requests, as
    (holder seq, request id) pairs; its head is the next request to move.
    """

    def __init__(self, typing: TypingIndex, root_id: str):
        self.typing = typing
        self.root_id = root_id
        self.components: dict[str, ComponentInstance] = {}
        self.part_instances: dict[tuple[str, str], list[str]] = {}
        self.ports: dict[str, PortInstance] = {}
        self.bindings: list[DelegBinding] = []
        self._bindings_by_holder: dict[str, list[DelegBinding]] = {}
        self.requests: dict[int, Request] = {}
        self._run_queue: list[tuple[int, int]] = []
        self._next_request = 1
        self._next_step = 1
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def add_binding(self, binding: DelegBinding) -> None:
        self.bindings.append(binding)
        self._bindings_by_holder.setdefault(binding.holder, []).append(binding)

    def bindings_of(self, holder: str) -> list[DelegBinding]:
        return self._bindings_by_holder.get(holder, [])

    def enqueue(self, request: Request) -> None:
        heapq.heappush(self._run_queue, (self.holder_seq(request.location), request.id))

    def holder_seq(self, holder_id: str) -> int:
        if holder_id in self.ports:
            return self.ports[holder_id].seq
        if holder_id in self.components:
            return self.components[holder_id].seq
        raise SimError(f"unknown holder '{holder_id}'")

    def component_class(self, component_id: str) -> Class:
        cls = self.typing.classes.get(self.components[component_id].class_name)
        assert cls is not None
        return cls


def build_graph(index: TypingIndex, root: str | Class,
                downgrade: frozenset[str] | set[str] = frozenset()) -> InstanceGraph:
    """Build the instance graph for a root class of a prepared model, which must
    pass the rules with no error-severity findings (``downgrade`` as in ``run_rules``)."""
    report = run_rules(index, downgrade)
    if not report.passed:
        raise SimError("model check failed: "
                       + "; ".join(d.render() for d in report.errors()))
    root_name = root if isinstance(root, str) else root.name
    root_cls = index.classes.get(root_name)
    if root_cls is None:
        raise SimError(f"root '{root_name}' is not a class of the model")
    graph = InstanceGraph(index, root_id=root_cls.name)
    _create(graph, root_cls)
    return graph


def instantiate(model: Model, root: str | Class, downgrade: frozenset[str] | set[str] = frozenset()) -> InstanceGraph:
    """:func:`~compocheck.rules.prepare` the model, then :func:`build_graph`."""
    return build_graph(prepare(model), root, downgrade)


def _create(graph: InstanceGraph, root: Class) -> None:
    """Create the root instance and everything below it: each instance, then
    its ports, then its parts depth first, and its bindings once its parts
    have theirs. Composite instances whose parts are still being created wait
    on an explicit stack, so nesting depth is not bounded by the recursion
    limit."""
    _add_instance(graph, root, root.name, None)
    stack = [(root, root.name, _part_instances(graph, root, root.name))]
    while stack:
        cls, instance_id, children = stack[-1]
        for child_cls, child_id in children:
            _add_instance(graph, child_cls, child_id, instance_id)
            if child_cls.parts:  # descend; this level resumes after the child is done
                stack.append((child_cls, child_id, _part_instances(graph, child_cls, child_id)))
                break
            _bind_connectors(graph, child_cls, child_id)
        else:
            stack.pop()
            _bind_connectors(graph, cls, instance_id)


def _add_instance(graph: InstanceGraph, cls: Class, instance_id: str, parent: str | None) -> None:
    graph.components[instance_id] = ComponentInstance(
        id=instance_id, class_name=cls.name, parent=parent, seq=graph.next_seq())
    for port in cls.ports:
        pid = f"{instance_id}.{port.name}"
        graph.ports[pid] = PortInstance(id=pid, owner=instance_id,
                                        declaration=port, seq=graph.next_seq())


def _part_instances(graph: InstanceGraph, cls: Class, instance_id: str):
    """Record the instance ids of each part of an instance, part by part, and
    yield ``(class, id)`` for each of them."""
    for part in cls.parts:
        part_cls = graph.typing.classes.get(part.type)
        assert part_cls is not None
        base = f"{instance_id}.{part.name}"
        child_ids = [base] if part.multiplicity == 1 else \
            [f"{base}[{i}]" for i in range(part.multiplicity)]
        graph.part_instances[(instance_id, part.name)] = child_ids
        for child_id in child_ids:
            yield part_cls, child_id


def _site_holder_ids(graph: InstanceGraph, composite_id: str, site) -> list[str]:
    if site.port is not None and site.on_composite:
        return [f"{composite_id}.{site.port.name}"]
    child_ids = graph.part_instances[(composite_id, site.part.name)]
    if site.port is not None:
        return [f"{cid}.{site.port.name}" for cid in child_ids]
    return child_ids


def _bind_connectors(graph: InstanceGraph, cls: Class, instance_id: str) -> None:
    index = graph.typing
    for conn in cls.connectors:
        link = index.connector(cls, conn)
        if link.kind is LinkKind.FORBIDDEN:
            continue
        s1, s2 = link.ends
        assoc = index.associations.get(conn.association) if conn.association else None
        if assoc is not None and assoc.is_bidirectional and link.kind is LinkKind.ASSEMBLY_PART_PART:
            directions = [(s1, s2, index.provided_interfaces(assoc.end2.type)),
                          (s2, s1, index.provided_interfaces(assoc.end1.type))]
        else:
            origin_site = link.origin.site if link.origin.site is not None else s1
            far_site = s2 if origin_site.index == 1 else s1
            if assoc is not None and assoc.pointed_end() is None:
                continue
            ts = link.transported
            interfaces = ts.interfaces if assoc is None or ts.computable \
                else index.provided_interfaces(assoc.pointed_end().type)
            directions = [(origin_site, far_site, interfaces)]
        for origin_site, far_site, interfaces in directions:
            holders = _site_holder_ids(graph, instance_id, origin_site)
            targets = _site_holder_ids(graph, instance_id, far_site)
            for x in sorted(interfaces):
                name = assoc.name if assoc is not None else deleg_name(x)
                for holder in holders:
                    for target in targets:
                        graph.add_binding(DelegBinding(holder, name, target, x))


def inject(graph: InstanceGraph, at: str, interface: str, operation: str | None = None) -> int:
    """Queue a request at a port or component instance; returns the request id.

    A port only accepts interfaces in its contract closure.
    """
    if at in graph.ports:
        accepted = graph.typing.port_interfaces(graph.ports[at].declaration)
        if interface not in accepted:
            raise SimError(f"port '{at}' does not accept interface '{interface}' "
                           f"(contract closure: {sorted(accepted)})")
    elif at not in graph.components:
        raise SimError(f"unknown injection point '{at}'")
    if operation is None:
        iface = graph.typing.interfaces.get(interface)
        operation = iface.operations[0] if iface is not None and iface.operations else "op"
    request = Request(id=graph._next_request, interface=interface, operation=operation,
                      location=at, path=[at])
    if at in graph.ports:
        request.visited_ports.add(at)
    graph._next_request += 1
    graph.requests[request.id] = request
    graph.enqueue(request)
    return request.id


def _route_from_port(graph: InstanceGraph, request: Request) -> tuple[list[str], str | None] | str:
    """Targets and binding name for the next hop, or a stuck reason."""
    port = graph.ports[request.location]
    candidates = [b for b in graph.bindings_of(port.id) if b.interface == request.interface]
    deleg = [b for b in candidates if b.association == deleg_name(request.interface)]
    chosen = deleg or candidates
    if chosen:
        name = chosen[0].association
        targets = [b.target for b in chosen if b.association == name]
        return targets, name
    decl = port.declaration
    if not decl.reversed:
        owner_cls = graph.component_class(port.owner)
        if not owner_cls.is_composite:
            return [port.owner], None
        return (f"no forwarding destination for interface '{request.interface}' "
                f"inside composite '{owner_cls.name}'")
    if port.owner == graph.root_id:
        return [ENVIRONMENT], None
    return (f"required port has no outgoing channel for interface '{request.interface}'")


def _arrive(graph: InstanceGraph, request: Request, target: str) -> None:
    if target == ENVIRONMENT:
        request.status = RequestStatus.DELIVERED
        return
    if target in graph.components:
        cls = graph.component_class(target)
        if request.interface in graph.typing.class_interfaces(cls.name):
            request.status = RequestStatus.DELIVERED
        else:
            request.status = RequestStatus.STUCK
            request.stuck_reason = (f"component '{target}' of class '{cls.name}' does not "
                                    f"provide interface '{request.interface}'")
        return
    if target in request.visited_ports:
        raise SimError(f"delegation cycle: request {request.id} revisited port '{target}'")
    request.visited_ports.add(target)


def step(graph: InstanceGraph) -> list[TraceEvent]:
    """Fire the single highest-priority forwarding action.

    Returns the trace events it produced (several when a request fans out to a
    multi-instance part), or an empty list when the graph is quiescent.
    """
    if not graph._run_queue:
        return []
    request = graph.requests[heapq.heappop(graph._run_queue)[1]]
    source = request.location
    if source in graph.ports:
        routed = _route_from_port(graph, request)
        if isinstance(routed, str):
            request.status = RequestStatus.STUCK
            request.stuck_reason = routed
            return []
        targets, via = routed
    else:
        candidates = [b for b in graph.bindings_of(source) if b.interface == request.interface]
        if not candidates:
            request.status = RequestStatus.STUCK
            request.stuck_reason = (f"component '{source}' has no channel for interface "
                                    f"'{request.interface}'")
            return []
        via = candidates[0].association
        targets = [b.target for b in candidates if b.association == via]
    events: list[TraceEvent] = []
    movers = [request]
    for _ in targets[1:]:
        clone = Request(id=graph._next_request, interface=request.interface,
                        operation=request.operation, location=source, hops=request.hops,
                        visited_ports=set(request.visited_ports), path=list(request.path))
        graph._next_request += 1
        graph.requests[clone.id] = clone
        movers.append(clone)
    for mover, target in zip(movers, targets):
        events.append(TraceEvent(step=graph._next_step, request=mover.id,
                                 from_=source, to=target, via=via))
        graph._next_step += 1
        mover.hops += 1
        mover.location = target
        mover.path.append(target)
        _arrive(graph, mover, target)
        if mover.status is RequestStatus.IN_TRANSIT:
            graph.enqueue(mover)
    return events


def run_to_quiescence(graph: InstanceGraph) -> Trace:
    """Step until no request is in transit; the cycle guard bounds every run."""
    events: list[TraceEvent] = []
    while graph._run_queue:
        events.extend(step(graph))
    statuses = {rid: r.status.value for rid, r in sorted(graph.requests.items())}
    return Trace(events=events, final_statuses=statuses)


def check_type_safety(trace: Trace, graph: InstanceGraph) -> SafetyReport:
    """Every request must be delivered, and any component receiver must
    provide the request's interface (environment exits are checked against
    the closure of the port they left through)."""
    violations: list[SafetyViolation] = []
    for rid in sorted(graph.requests):
        request = graph.requests[rid]
        if request.status is not RequestStatus.DELIVERED:
            reason = request.stuck_reason or "request still in transit"
            violations.append(SafetyViolation(rid, f"not delivered: {reason}", list(request.path)))
            continue
        if request.location == ENVIRONMENT:
            if len(request.path) >= 2:
                exit_port = request.path[-2]
                if exit_port in graph.ports:
                    closure = graph.typing.port_interfaces(graph.ports[exit_port].declaration)
                    if request.interface not in closure:
                        violations.append(SafetyViolation(
                            rid, f"left through port '{exit_port}' that does not carry "
                                 f"'{request.interface}'", list(request.path)))
            continue
        cls = graph.component_class(request.location)
        if request.interface not in graph.typing.class_interfaces(cls.name):
            violations.append(SafetyViolation(
                rid, f"delivered to '{request.location}' ({cls.name}), which does not "
                     f"provide '{request.interface}'", list(request.path)))
    return SafetyReport(passed=not violations, violations=violations)


def default_injection_suite(graph: InstanceGraph) -> list[tuple[str, str]]:
    """One (port instance, interface) pair per provided boundary port of the
    root instance and interface in its closure."""
    suite: list[tuple[str, str]] = []
    root_cls = graph.component_class(graph.root_id)
    for port in root_cls.ports:
        if port.reversed:
            continue
        pid = f"{graph.root_id}.{port.name}"
        for interface in sorted(graph.typing.port_interfaces(port)):
            suite.append((pid, interface))
    return suite
