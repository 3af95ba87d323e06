"""Instantiation of composite structures and default request forwarding.

A composite class acts as an initialization scheme: :func:`instantiate` builds
the component instances (parts expanded by multiplicity), one port instance
per (component, port declaration), and a binding table entry per connector
channel and interface it carries. Untyped connectors bind under the
per-interface ``deleg_I`` associations, typed connectors under their own
association name; connectors starting at a part bind an attribute of the
component instance. What an instance binds depends only on its class, so each
class's binding plan, the ``channels`` of its connectors' typing records, is
read once per graph and expanded per instance. The plans, the instance count
and the binding count are computed from the classes before anything is
allocated; a root with more than :data:`MAX_INSTANCES` component instances or
more than :data:`MAX_BINDINGS` bindings is refused with a :class:`SimError`.

Requests then travel one hop at a time. Only one forwarding action fires per
step: the pending request whose holder was instantiated earliest (ports and
components are totally ordered by creation), which makes every run
deterministic. A request arriving at a component is delivered when the
component's class provides its interface and stuck otherwise; a provided port
of a structureless component hands requests to its owner; a required port of
the root instance hands them to the environment. A hop to several targets
moves the request to the first and a clone to each further one.

No request revisits a port, so every run ends. Only instantiation makes
bindings, each along a link the typing index has directed: a required port
forwards up, to a required port of the enclosing instance, or across, to a
provided port or a part at its own depth; a provided port forwards only
down, to a part or a part's provided port, or to its owner; a request that
reaches a component stops there. So a path climbs, crosses at most once,
then descends.

Bindings are filed by (holder, interface), the key a hop is routed by. Where
a hop out of a holder goes depends only on that key's bindings, so each
(holder, interface) hop is routed once, the first time a step needs it, and
kept in the graph's hop table together with what happens on arrival at each
target. Routing alone judges whether a component receiver provides a
request's interface; the safety check re-reads only the requests that left
to the environment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .model import Class, EndRef, Model, Port, deleg_name
from .rules import check_model, prepare, run_rules  # check_model: perfbench's tracer patches it
from .type_system import Channel, TypingIndex

ENVIRONMENT = "environment"
# build_graph refuses a root with more component instances, or more bindings,
# than these.
MAX_INSTANCES = 1_000_000
MAX_BINDINGS = 1_000_000
_TAKEN = ("two instances would get the id '{}': rename a part or port whose name holds "
          "'.', '[' or ']'")


class SimError(Exception):
    pass


class RequestStatus(str, Enum):
    IN_TRANSIT = "inTransit"
    DELIVERED = "delivered"
    STUCK = "stuck"


# An enum member read through its class costs a metaclass lookup (~0.1 µs);
# the hot paths read the members from these module globals instead.
_IN_TRANSIT, _DELIVERED, _STUCK = (RequestStatus.IN_TRANSIT, RequestStatus.DELIVERED,
                                   RequestStatus.STUCK)


@dataclass
class ComponentInstance:
    class_name: str
    seq: int


@dataclass
class PortInstance:
    owner: str
    declaration: Port
    seq: int


@dataclass
class DelegBinding:
    holder: str
    association: str
    target: str
    interface: str


@dataclass(slots=True)
class Request:
    id: int
    interface: str
    operation: str
    location: str
    status: RequestStatus = RequestStatus.IN_TRANSIT
    stuck_reason: str | None = None
    path: list[str] = field(default_factory=list)

    @property
    def hops(self) -> int:
        """Hops taken so far: every hop appends its target to ``path``."""
        return len(self.path) - 1


@dataclass(slots=True)
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

    ``bindings`` lists every binding in creation order; the binding index
    files the same bindings by (holder id, interface), in the same order.
    Only instantiation makes bindings, along directed links (see the module
    docstring): no path revisits a port, and no hop table entry goes stale.

    Only :func:`inject` and :func:`step` change a request's status or
    location, and the run queue holds exactly the in-transit requests, as
    (holder seq, request id) pairs; its head is the next request to move.
    Request ids are assigned in insertion order, so ``requests`` iterates in
    id order.

    The hop table maps (holder id, interface) to the stuck reason of a request
    that cannot leave the holder, or to ``(via, [(target, arrival), ...])``.
    An arrival is ``RequestStatus.DELIVERED``, a component's stuck reason, the
    target port's creation seq (the request stays in transit), or None for a
    request a root port hands to the environment. Hops are routed when a step
    first needs them. ``exited`` holds the ids of the requests that left to
    the environment.
    """

    def __init__(self, typing: TypingIndex, root_id: str):
        self.typing = typing
        self.root_id = root_id
        self.components: dict[str, ComponentInstance] = {}
        self.part_instances: dict[tuple[str, str], list[str]] = {}
        self.ports: dict[str, PortInstance] = {}
        self.bindings: list[DelegBinding] = []
        self._bindings_by_hop: dict[tuple[str, str], list[DelegBinding]] = {}
        self._hops: dict[tuple[str, str], tuple | str] = {}
        self.requests: dict[int, Request] = {}
        self.exited: set[int] = set()
        self._run_queue: list[tuple[int, int]] = []
        self._next_request = 1
        self._next_step = 1

    def enqueue(self, request: Request) -> None:
        heapq.heappush(self._run_queue, (self.holder_seq(request.location), request.id))

    def holder_seq(self, holder_id: str) -> int:
        if holder_id in self.ports:
            return self.ports[holder_id].seq
        return self.components[holder_id].seq

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
    instances, bindings, plans = _census(index, root_cls)
    if instances > MAX_INSTANCES:
        raise SimError(f"root '{root_cls.name}' would have more than {MAX_INSTANCES} "
                       "component instances")
    if bindings > MAX_BINDINGS:
        raise SimError(f"root '{root_cls.name}' would have more than {MAX_BINDINGS} bindings")
    graph = InstanceGraph(index, root_id=root_cls.name)
    _create(graph, root_cls, plans)
    return graph


def instantiate(model: Model, root: str | Class, downgrade: frozenset[str] | set[str] = frozenset()) -> InstanceGraph:
    """:func:`~compocheck.rules.prepare` the model, then :func:`build_graph`."""
    return build_graph(prepare(model), root, downgrade)


def _census(index: TypingIndex, root: Class) -> tuple[int, int, dict[str, list[Channel]]]:
    """The number of component instances under ``root``, itself included, the
    number of bindings they make, each capped one above its ceiling, and the
    binding plan (its connectors' channels) of each class by name. The counts
    are sums of products along containment, which E010 keeps acyclic, taken
    once per class on an explicit stack; an instance binds, per channel, each
    (interface, name) pair once per origin holder and far holder. Only a class
    with connectors has a plan."""
    counts: dict[str, tuple[int, int]] = {}
    plans: dict[str, list] = {}
    stack = [root]
    while stack:
        cls = stack[-1]
        pending = [index.classes[part.type] for part in cls.parts if part.type not in counts]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if cls.name in counts:  # a part class stacked twice
            continue
        instances = 1 + sum(part.multiplicity * counts[part.type][0] for part in cls.parts)
        bindings = sum(part.multiplicity * counts[part.type][1] for part in cls.parts)
        if cls.connectors:  # only a class with connectors binds, and only its plan is read
            holders = {part.name: part.multiplicity for part in cls.parts}
            plan = plans[cls.name] = [channel for conn in cls.connectors
                                      for channel in index.connector(cls, conn).channels]
            bindings += sum(holders.get(origin.ref.part, 1) * holders.get(far.ref.part, 1)
                            * len(pairs) for origin, far, pairs in plan)
        counts[cls.name] = min(MAX_INSTANCES + 1, instances), min(MAX_BINDINGS + 1, bindings)
    return (*counts[root.name], plans)


def _create(graph: InstanceGraph, root: Class, plans: dict[str, list[Channel]]) -> None:
    """Create the root instance and everything below it: each instance, then
    its ports, then its parts depth first, and its bindings once its parts
    have theirs, by its class's binding plan in ``plans``. Composite instances
    whose parts are still being created wait on an explicit stack, so nesting
    depth is not bounded by the recursion limit."""
    seq = _add_instance(graph, root, root.name, 0)
    stack = [(root, root.name, _part_instances(graph, root, root.name))]
    while stack:
        cls, instance_id, children = stack[-1]
        for child_cls, child_id in children:
            seq = _add_instance(graph, child_cls, child_id, seq)
            if child_cls.parts:  # descend; this level resumes after the child is done
                stack.append((child_cls, child_id, _part_instances(graph, child_cls, child_id)))
                break
            if child_cls.connectors:
                _bind_connectors(graph, plans[child_cls.name], child_id)
        else:
            stack.pop()
            if cls.connectors:
                _bind_connectors(graph, plans[cls.name], instance_id)


def _add_instance(graph: InstanceGraph, cls: Class, instance_id: str, seq: int) -> int:
    """Create an instance and its ports, numbered after ``seq``; returns the
    last seq used. Names may hold '.', '[' and ']', so an id may be taken
    already, by a component or a port: that is refused."""
    components, ports = graph.components, graph.ports
    seq += 1
    if instance_id in ports or components.setdefault(
            instance_id, ComponentInstance(cls.name, seq)).seq != seq:
        raise SimError(_TAKEN.format(instance_id))
    for port in cls.ports:
        seq += 1
        port_id = f"{instance_id}.{port.name}"
        if port_id in components or ports.setdefault(
                port_id, PortInstance(instance_id, port, seq)).seq != seq:
            raise SimError(_TAKEN.format(port_id))
    return seq


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


def _site_holder_ids(graph: InstanceGraph, composite_id: str, ref: EndRef) -> list[str]:
    if ref.part is None:
        return [f"{composite_id}.{ref.port}"]
    child_ids = graph.part_instances[(composite_id, ref.part)]
    if ref.port is not None:
        return [f"{cid}.{ref.port}" for cid in child_ids]
    return child_ids


def _bind_connectors(graph: InstanceGraph, plan: list[Channel], instance_id: str) -> None:
    """File each binding in ``graph.bindings`` and under its hop key."""
    bindings, by_hop = graph.bindings, graph._bindings_by_hop
    for origin, far, pairs in plan:
        holders = _site_holder_ids(graph, instance_id, origin.ref)
        targets = _site_holder_ids(graph, instance_id, far.ref)
        for x, name in pairs:
            for holder in holders:
                filed = by_hop.setdefault((holder, x), [])
                for target in targets:
                    binding = DelegBinding(holder, name, target, x)
                    bindings.append(binding)
                    filed.append(binding)


def inject(graph: InstanceGraph, at: str, interface: str, operation: str | None = None) -> int:
    """Queue a request at a port or component instance; returns the request id.

    A port only accepts interfaces in its contract closure, and a component
    only interfaces the model declares (interface groups excluded).
    """
    if at in graph.ports:
        accepted = graph.typing.port_interfaces(graph.ports[at].declaration)
        if interface not in accepted:
            raise SimError(f"port '{at}' does not accept interface '{interface}' "
                           f"(contract closure: {sorted(accepted)})")
    elif at not in graph.components:
        raise SimError(f"unknown injection point '{at}'")
    elif interface not in graph.typing.interface_closure(interface):  # undeclared or a group
        raise SimError(f"component '{at}' cannot take interface '{interface}': the model "
                       f"declares no such non-group interface")
    if operation is None:
        iface = graph.typing.interfaces.get(interface)
        operation = iface.operations[0] if iface is not None and iface.operations else "op"
    request = Request(id=graph._next_request, interface=interface, operation=operation,
                      location=at, path=[at])
    graph._next_request += 1
    graph.requests[request.id] = request
    graph.enqueue(request)
    return request.id


def _route(graph: InstanceGraph, source: str, interface: str
           ) -> tuple[str | None, list[tuple[str, RequestStatus | str | int | None]]] | str:
    """The hop table entry for ``interface`` leaving ``source``: the binding
    name and each target with its arrival, or a stuck reason."""
    candidates = graph._bindings_by_hop.get((source, interface), [])
    port = graph.ports.get(source)
    if port is not None:
        deleg = deleg_name(interface)
        candidates = [b for b in candidates if b.association == deleg] or candidates
    if candidates:
        via = candidates[0].association
        targets = [b.target for b in candidates if b.association == via]
    elif port is None:
        return f"component '{source}' has no channel for interface '{interface}'"
    elif not port.declaration.reversed:
        owner_cls = graph.component_class(port.owner)
        if owner_cls.is_composite:
            return (f"no forwarding destination for interface '{interface}' "
                    f"inside composite '{owner_cls.name}'")
        via, targets = None, [port.owner]
    elif port.owner == graph.root_id:
        return None, [(ENVIRONMENT, None)]
    else:
        return f"required port has no outgoing channel for interface '{interface}'"
    return via, [(target, _arrival(graph, target, interface)) for target in targets]


def _arrival(graph: InstanceGraph, target: str, interface: str) -> RequestStatus | str | int:
    component = graph.components.get(target)
    if component is None:
        return graph.holder_seq(target)
    if interface in graph.typing.class_interfaces(component.class_name):
        return _DELIVERED
    return (f"component '{target}' of class '{component.class_name}' does not "
            f"provide interface '{interface}'")


def step(graph: InstanceGraph) -> list[TraceEvent]:
    """Fire the single highest-priority forwarding action.

    Returns the trace events it produced (several when a request fans out to a
    multi-instance part), or an empty list when the graph is quiescent. The
    request takes the hop's first target and a clone each further one; no
    mover reaches a port already on its path (see the module docstring).
    """
    queue = graph._run_queue
    if not queue:
        return []
    requests = graph.requests
    request = requests[heapq.heappop(queue)[1]]
    source = request.location
    interface = request.interface
    key = (source, interface)
    hop = graph._hops.get(key)
    if hop is None:
        hop = graph._hops[key] = _route(graph, source, interface)
    if hop.__class__ is str:
        request.status = _STUCK
        request.stuck_reason = hop
        return []
    via, arrivals = hop
    path = request.path  # the path before this hop, which every mover shares
    step_no = graph._next_step
    clone_id = graph._next_request
    events: list[TraceEvent] = []
    mover = request
    for target, arrival in arrivals:
        if mover is None:  # a further target: its clone is built with its final path
            mover = requests[clone_id] = Request(
                clone_id, interface, request.operation, target, _IN_TRANSIT,
                None, [*path, target])
            clone_id += 1
        else:
            mover.location = target
        mover_id = mover.id
        events.append(TraceEvent(step_no, mover_id, source, target, via))
        step_no += 1
        if arrival is _DELIVERED:
            mover.status = _DELIVERED
        elif arrival is None:
            mover.status = _DELIVERED
            graph.exited.add(mover_id)
        elif arrival.__class__ is str:
            mover.status = _STUCK
            mover.stuck_reason = arrival
        else:
            heapq.heappush(queue, (arrival, mover_id))
        mover = None
    path.append(arrivals[0][0])  # the request's own target, now that the clones are built
    graph._next_step = step_no
    graph._next_request = clone_id
    return events


def run_to_quiescence(graph: InstanceGraph) -> Trace:
    """Step until no request is in transit; every run ends, since no request
    revisits a port (see the module docstring)."""
    events: list[TraceEvent] = []
    extend = events.extend
    queue = graph._run_queue
    while queue:
        extend(step(graph))  # the module global: perfbench's tracer patches it
    # ``_value_`` is the member's value; the enum's ``value`` property would
    # cost a Python-level call per request.
    statuses = {rid: r.status._value_ for rid, r in graph.requests.items()}
    return Trace(events=events, final_statuses=statuses)


def check_type_safety(trace: Trace, graph: InstanceGraph) -> SafetyReport:
    """Every request must be delivered, and a request that left to the
    environment must carry an interface in the closure of the port it left
    through. Routing delivers a request at a component only if the
    component's class provides its interface, so component receivers are not
    judged again here."""
    violations: list[SafetyViolation] = []
    for rid, request in graph.requests.items():
        if request.status is not _DELIVERED:
            reason = request.stuck_reason or "request still in transit"
            violations.append(SafetyViolation(rid, f"not delivered: {reason}", list(request.path)))
        elif rid in graph.exited:
            exit_port = request.path[-2]  # only a port hands a request to the environment
            closure = graph.typing.port_interfaces(graph.ports[exit_port].declaration)
            if request.interface not in closure:
                violations.append(SafetyViolation(
                    rid, f"left through port '{exit_port}' that does not carry "
                         f"'{request.interface}'", list(request.path)))
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
