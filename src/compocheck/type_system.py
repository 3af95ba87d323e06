"""Derived typing over component models.

A :class:`TypingIndex` derives, once, everything the rules, ``explain`` and
the simulator need to know about a model's typing:

* generalization closures (``parents``) and the provided-interface sets of
  ports, classes and interfaces, each folded once from its generals' sets
  (interface groups never appear in a result);
* one :class:`ConnectorTyping` record per connector (:meth:`TypingIndex.links`):
  its element path and resolved ends; its kind (delegation or assembly, or
  one of the forbidden direction combinations) and its origin (the end
  requests flow away from, None for forbidden links), both picked by one
  case analysis over the end shapes and port directions, and the end
  opposite the origin; its typing association; the frozenset of interfaces
  it transports, the intersection of the interface sets at its two ends,
  narrowed to the pointed type's closure when the connector is statically
  typed with an association (a link that starts at a port therefore never
  transports more than that port's closure); and its ``channels``, what
  the simulator binds in each run-time direction;
* the ports that originate a link, each with its element path and the links
  out of it, filed as the records are built (:meth:`TypingIndex.port_origins`),
  and per port the fan-out that W007, W008 and ``explain`` read
  (:meth:`TypingIndex.fanout`);
* compatibility predicates between link ends and association ends.

:class:`~compocheck.model.Model` is mutable, so an index is a snapshot:
:func:`compocheck.rules.prepare` builds one per verdict on the synthesized
model, and the rules, ``explain`` and the simulator read it for the rest of
that verdict (an instance graph keeps the one it was built from). Nothing is
cached on the model or across calls. To ask about a model, build one index
and call its methods; :func:`parents_of` is the one module-level shortcut,
and it builds a fresh index per call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from enum import Enum

from .model import Association, Class, Connector, EndRef, Model, Part, Port, _by_name, deleg_name


class LinkKind(Enum):
    """Connector classification by end shapes and port directions."""

    ASSEMBLY_PART_PART = "assembly link between parts"
    INBOUND_DELEGATION_PORT_PORT = "inbound delegation link between provided ports"
    OUTBOUND_DELEGATION_PORT_PORT = "outbound delegation link between required ports"
    ASSEMBLY_PORT_PORT = "assembly link between provided-required ports"
    ASSEMBLY_PART_PROVIDED_PORT = "assembly link between part and provided port"
    ASSEMBLY_PART_REQUIRED_PORT = "assembly link between part and required port"
    INBOUND_DELEGATION_PART_PORT = "inbound delegation link between part and provided port"
    OUTBOUND_DELEGATION_PART_PORT = "outbound delegation link between part and required port"
    FORBIDDEN = "forbidden"


# An enum member read through its class costs a metaclass lookup (~0.1 µs);
# the hot paths read the members from these module globals instead.
(_PART_PART, _INBOUND_PORT_PORT, _OUTBOUND_PORT_PORT, _PORT_PORT, _PART_PROVIDED_PORT,
 _PART_REQUIRED_PORT, _INBOUND_PART_PORT, _OUTBOUND_PART_PORT, _FORBIDDEN_KIND) = LinkKind


# The records below are immutable values, so they are named tuples rather than
# record classes (``compocheck.records``): a named tuple is built in about half
# the time of a frozen record, whose constructor sets each field through
# ``object.__setattr__``.
class EndSite(namedtuple("EndSite", "ref part port on_composite")):
    """A connector end resolved against its owning class.

    ``part`` is None for ends naming a port of the composite itself; ``port``
    is None for bare part ends. ``on_composite`` is true when the port belongs
    to the class owning the connector.
    """

    __slots__ = ()

    def describe(self) -> str:
        return self.ref.describe()


class Channel(namedtuple("Channel", "origin far pairs")):
    """One run-time direction of a connector: from the ``origin`` to the ``far``
    :class:`EndSite`, the ``(interface, binding name)`` pairs in interface
    order, named ``deleg_I`` when the connector is untyped, else by its association."""

    __slots__ = ()


class ConnectorTyping(namedtuple("ConnectorTyping",
                                 "connector path kind ends origin far association transported "
                                 "channels")):
    """Everything derived about one connector, in terms of its owning class: the
    connector, its element path (``A#0``), its :class:`LinkKind`, both
    :class:`EndSite` s, the ``origin`` end requests enter through (a part when
    it has no ``port``, else a required port when the port is reversed, else
    a provided port) and the ``far`` end, both None for forbidden links, its
    typing association (the first declared of that name, None when the
    connector is untyped or the name is undeclared), the frozenset of
    interfaces it transports (None for part-part and forbidden links, where no
    port closure bounds it, and for associations with no navigable end) and
    its :class:`Channel` s."""

    __slots__ = ()


_EMPTY: frozenset[str] = frozenset()
_FORBIDDEN = (_FORBIDDEN_KIND, None)


def _classify(s1: EndSite, s2: EndSite) -> tuple[LinkKind, EndSite | None]:
    """Classify a connector by its end shapes and port directions, and name the
    end its requests flow away from (its origin); each case picks both.

    Port-port links with one port on the composite are delegations and need
    matching directions: inbound ones start at the composite's provided port,
    outbound ones at the inner component's required port. Port-port links
    between parts are assemblies, need opposite directions and start at the
    required port. Part-port links are assemblies when the port sits on a part
    and delegations when it sits on the composite; they start at the port when
    requests enter the link through it (a required port of a part, a provided
    port of the composite) and at the part otherwise. Part-part links start at
    their first end. Two ports of the composite itself fall under the assembly
    case. Forbidden links have no origin.
    """
    p1, p2 = s1.port, s2.port
    if p1 is None and p2 is None:
        return _PART_PART, s1
    if p1 is not None and p2 is not None:
        if s1.on_composite != s2.on_composite:
            if not p1.reversed and not p2.reversed:
                return _INBOUND_PORT_PORT, s1 if s1.on_composite else s2
            if p1.reversed and p2.reversed:
                return _OUTBOUND_PORT_PORT, s2 if s1.on_composite else s1
            return _FORBIDDEN
        if p1.reversed != p2.reversed:
            return _PORT_PORT, s1 if p1.reversed else s2
        return _FORBIDDEN
    port_site, part_site = (s1, s2) if p1 is not None else (s2, s1)
    if not port_site.on_composite:
        if port_site.port.reversed:
            return _PART_REQUIRED_PORT, port_site
        return _PART_PROVIDED_PORT, part_site
    if port_site.port.reversed:
        return _OUTBOUND_PART_PORT, part_site
    return _INBOUND_PART_PORT, port_site


class TypingIndex:
    """Name lookups, closures and connector typing of one model, each derived once.

    Closures are computed on first use, and the connector records all at once
    the first time one is asked for; they are kept as frozensets and frozen
    records, so every reader shares one result. The model must not change
    while the index is in use.
    """

    def __init__(self, model: Model):
        self.model = model
        self.interfaces = _by_name(model.interfaces)
        self.classes = _by_name(model.classes)
        self.associations = _by_name(model.associations)
        self._parents: dict[str, frozenset[str]] = {}
        self._interface_closures: dict[str, frozenset[str]] = {}
        self._class_interfaces: dict[str, frozenset[str]] = {}
        self._used_interfaces: dict[str, frozenset[str]] = {}
        self._ports: dict[int, dict[str, Port]] = {}
        self._links: list[ConnectorTyping] | None = None
        self._connectors: dict[tuple[int, int], ConnectorTyping] = {}
        self._origins: dict[int, tuple[str, Port, list[ConnectorTyping]]] = {}
        self._fanouts: dict[int, tuple] = {}

    # --- closures ------------------------------------------------------------

    def _generals(self, name: str) -> list[str]:
        element = self.interfaces.get(name) or self.classes.get(name)
        return element.generals if element is not None else []

    def parents(self, name: str) -> frozenset[str]:
        """Transitive closure of a classifier's generals, excluding itself."""
        found = self._parents.get(name)
        if found is None:
            seen: set[str] = set()
            work = [name]
            while work:
                for general in self._generals(work.pop()):
                    if general not in seen:
                        seen.add(general)
                        work.append(general)
            seen.discard(name)
            found = self._parents[name] = frozenset(seen)
        return found

    def _fold(self, name: str, memo: dict[str, frozenset[str]],
              own: Callable[[str], frozenset[str]]) -> frozenset[str]:
        """The union of ``own(c)``, what a classifier contributes itself, over
        the classifier ``name`` and all its ancestors, kept in ``memo``, which
        does not hold ``name`` yet.

        When ``name`` has no generals, or every general is in ``memo`` already,
        the union is taken at once. Otherwise generals are walked in post-order
        with an explicit stack, so every ancestor's union is built once from its
        generals' unions and deep hierarchies need no recursion. Results stay
        small (interface sets), unlike the ancestor sets themselves. A cycle,
        which only a model failing integrity has, falls back to a walk over
        :meth:`parents`.
        """
        generals = self._generals(name)
        for general in generals:
            if general not in memo:
                break
        else:  # nothing to walk
            found = memo[name] = own(name).union(*map(memo.__getitem__, generals))
            return found
        on_path = {name}
        stack = [(name, iter(generals))]
        while stack:
            node, pending = stack[-1]
            for general in pending:
                if general in memo:
                    continue
                if general in on_path:
                    found = memo[name] = _EMPTY.union(*map(own, (name, *self.parents(name))))
                    return found
                on_path.add(general)
                stack.append((general, iter(self._generals(general))))
                break
            else:
                stack.pop()
                on_path.discard(node)
                memo[node] = own(node).union(*(memo[g] for g in self._generals(node)))
        return memo[name]

    def _itself(self, name: str) -> frozenset[str]:
        """An interface's own contribution to closures: itself, unless a group."""
        iface = self.interfaces.get(name)
        return _EMPTY if iface is None or iface.is_group else frozenset((name,))

    def _realized(self, name: str) -> frozenset[str]:
        """The closures of the interfaces class ``name`` itself realizes."""
        cls = self.classes.get(name)
        return _EMPTY if cls is None else self._closures(cls.realizes)

    def _used(self, name: str) -> frozenset[str]:
        """The closures of the interfaces class ``name`` itself uses."""
        cls = self.classes.get(name)
        return _EMPTY if cls is None else self._closures(cls.usages)

    def _closures(self, refs: list[str]) -> frozenset[str]:
        """The union of the closures of the interfaces ``refs`` names."""
        if not refs:
            return _EMPTY
        if len(refs) == 1:
            return self.interface_closure(refs[0])
        return _EMPTY.union(*map(self.interface_closure, refs))

    def interface_closure(self, name: str) -> frozenset[str]:
        """The interface itself plus its ancestors, with interface groups rejected."""
        found = self._interface_closures.get(name)
        return found if found is not None else self._fold(name, self._interface_closures,
                                                          self._itself)

    def class_interfaces(self, name: str) -> frozenset[str]:
        """Interfaces a class provides: realized directly or via any ancestor class,
        expanded to the realized interfaces' ancestors, groups rejected."""
        found = self._class_interfaces.get(name)
        return found if found is not None else self._fold(name, self._class_interfaces,
                                                          self._realized)

    def used_interfaces(self, name: str) -> frozenset[str]:
        """Interfaces a class uses, directly or via any ancestor class, expanded
        to the used interfaces' ancestors, groups rejected."""
        found = self._used_interfaces.get(name)
        return found if found is not None else self._fold(name, self._used_interfaces, self._used)

    def port_interfaces(self, port: Port) -> frozenset[str]:
        """The interfaces a port provides (or requires, when reversed)."""
        return self.interface_closure(port.contract)

    def provided_interfaces(self, name: str) -> frozenset[str]:
        """Polymorphic interface set of a classifier name (class or interface)."""
        if name in self.interfaces:
            return self.interface_closure(name)
        return self.class_interfaces(name)  # empty for an undeclared name

    # --- compatibility -------------------------------------------------------

    def classifier_compatible(self, end_type: str, assoc_type: str) -> bool:
        """True when an association end may govern a link end of the given type.

        The association end must name the link end's classifier or something it
        specializes: for interfaces, an ancestor (or itself); for a class against
        an interface, something the class realizes directly or indirectly; for two
        classes, the class itself or one of its superclasses.
        """
        end_is_iface = end_type in self.interfaces
        assoc_is_iface = assoc_type in self.interfaces
        if end_is_iface and assoc_is_iface:
            return assoc_type in self.interface_closure(end_type)
        if not end_is_iface and assoc_is_iface:
            return assoc_type in self.class_interfaces(end_type)
        if not end_is_iface and not assoc_is_iface:
            return assoc_type == end_type or assoc_type in self.parents(end_type)
        return False

    def port_compatible(self, port: Port, assoc_type: str) -> bool:
        """True when the port provides/requires everything the given interface covers."""
        if assoc_type not in self.interfaces:
            return False
        return self.interface_closure(assoc_type) <= self.port_interfaces(port)

    # --- connectors ----------------------------------------------------------

    def _ports_of(self, cls: Class) -> dict[str, Port]:
        found = self._ports.get(id(cls))
        if found is None:
            found = self._ports[id(cls)] = _by_name(cls.ports)
        return found

    def _site(self, ref: EndRef, parts: dict[str, Part], ports: dict[str, Port]) -> EndSite:
        """A connector end resolved against its owner's part and port tables."""
        part = parts.get(ref.part) if ref.part else None
        if ref.port is None:
            return EndSite(ref, part, None, False)
        part_class = self.classes.get(part.type) if part else None
        if part_class is not None:
            return EndSite(ref, part, self._ports_of(part_class).get(ref.port), False)
        on_composite = ref.part is None
        return EndSite(ref, part, ports.get(ref.port) if on_composite else None, on_composite)

    def links(self) -> list[ConnectorTyping]:
        """The record of every connector of the model, in ``Model.iter_connectors``
        order, each built once; a link that starts at a port is also filed under
        that port (see :meth:`port_origins`). Do not mutate."""
        if self._links is None:
            links = []
            site, origins, model = self._site, self._origins, self.model
            for owner in model.classes:
                if not owner.connectors:
                    continue
                parts, ports = _by_name(owner.parts), self._ports_of(owner)
                for idx, conn in enumerate(owner.connectors):
                    s1, s2 = site(conn.end1, parts, ports), site(conn.end2, parts, ports)
                    kind, origin = _classify(s1, s2)
                    far = None if origin is None else s2 if origin is s1 else s1
                    assoc = self.associations.get(conn.association)
                    link = self._connectors[id(owner), id(conn)] = ConnectorTyping(
                        conn, model.connector_path(owner, idx), kind, (s1, s2), origin, far,
                        assoc, *self._carried(assoc, kind, origin, far))
                    links.append(link)
                    if origin is not None and (port := origin.port) is not None:
                        entry = origins.get(id(port))
                        if entry is None:  # a part's port is its class's, otherwise the owner's
                            cls = owner if origin.part is None else self.classes[origin.part.type]
                            entry = origins[id(port)] = (model.member_path(cls, port.name), port, [])
                        entry[2].append(link)
            self._links = links
        return self._links

    def connector(self, owner: Class, conn: Connector) -> ConnectorTyping:
        """The record of a connector of ``owner`` (see :meth:`links`)."""
        self.links()
        return self._connectors[id(owner), id(conn)]

    def _end_interface_set(self, site: EndSite) -> frozenset[str]:
        if site.port is not None:
            return self.port_interfaces(site.port)
        return self.class_interfaces(site.part.type)  # an end names one or the other (E006)

    def _carried(self, assoc: Association | None, kind: LinkKind, origin: EndSite | None,
                 far: EndSite | None) -> tuple[frozenset[str] | None, tuple[Channel, ...]]:
        """A connector's transported set and channels, from one case analysis.

        Untyped: intersection of the two end interface sets (a port contributes
        its contract closure, a part the interfaces its class provides), carried
        from the origin. Typed: the closure of the port at the origin (or, for a
        link starting at a part, at the far end) narrowed to the pointed type's
        closure. None (not computable) for part-part links, forbidden links, or
        associations with no navigable end; the last two carry nothing. A typed
        part-part link carries the pointed type's interfaces from its first end,
        and a bidirectional one also end1's type's interfaces back.
        """
        if kind is _FORBIDDEN_KIND:
            return None, ()
        if assoc is None:
            transported = None if kind is _PART_PART else \
                self._end_interface_set(origin) & self._end_interface_set(far)
            return transported, (Channel(origin, far, [(x, deleg_name(x))
                                                       for x in sorted(transported or ())]),)
        pointed = assoc.pointed_end()
        if pointed is None:
            return None, ()
        name = assoc.name
        carried = self.provided_interfaces(pointed.type)
        if kind is _PART_PART:
            transported = None
            channels = [(origin, far, carried)]
            if assoc.is_bidirectional:  # end2 is the pointed end; end1's type answers back
                channels.append((far, origin, self.provided_interfaces(assoc.end1.type)))
        else:
            base = origin if origin.port is not None else far
            transported = carried = self.port_interfaces(base.port) & carried
            channels = [(origin, far, carried)]
        return transported, tuple(Channel(start, end, [(x, name) for x in sorted(interfaces)])
                                  for start, end, interfaces in channels)

    def fanout(self, port: Port) -> tuple[list[ConnectorTyping], list[ConnectorTyping], set[str],
                                          frozenset[str], frozenset[str]]:
        """The records of the links out of a port (see :meth:`port_origins`),
        the untyped ones among them, the interfaces two untyped ones both
        transport, the union of what all of them transport, and the part of the
        port's closure that union misses; derived once per port. Do not mutate."""
        found = self._fanouts.get(id(port))
        if found is None:
            entry = self.port_origins().get(id(port))
            links = [] if entry is None else entry[2]
            untyped = [link for link in links if link.connector.association is None]
            _, overlap = pairwise_disjoint_by_cardinality([link.transported for link in untyped])
            union = _EMPTY.union(*(link.transported or _EMPTY for link in links))
            found = self._fanouts[id(port)] = (links, untyped, overlap, union,
                                               self.port_interfaces(port) - union)
        return found

    def port_origins(self) -> dict[int, tuple[str, Port, list[ConnectorTyping]]]:
        """Each port declaration that originates a link, keyed by ``id``, in the
        order of its first link: its element path (``Class.port``), the port and
        the records of the links out of it, in ``Model.iter_connectors`` order,
        filed by :meth:`links`. Do not mutate."""
        self.links()
        return self._origins


def pairwise_disjoint_by_cardinality(sets: list[frozenset[str]] | list[set[str]]) -> tuple[bool, set[str]]:
    """Disjointness via the counting identity |A1 u ... u An| = sum |Ai|.

    Returns (disjoint, overlapping elements).
    """
    union: set[str] = set()
    total = 0
    seen_twice: set[str] = set()
    for s in sets:
        seen_twice |= union & s
        union |= s
        total += len(s)
    return len(union) == total, seen_twice


def parents_of(model: Model, name: str) -> set[str]:
    """Transitive closure of a classifier's generals, excluding itself."""
    return set(TypingIndex(model).parents(name))
