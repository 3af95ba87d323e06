"""Derived typing over component models.

A :class:`TypingIndex` derives, once, everything the rules, ``explain`` and
the simulator need to know about a model's typing:

* generalization closures (``parents``) and the provided-interface sets of
  ports, classes and interfaces (interface groups never appear in a result);
* the classification of a connector into delegation/assembly kinds, including
  the forbidden direction combinations;
* the origin of a link (the end requests flow away from);
* the set of interfaces a connector transports: the intersection of the
  interface sets at its two ends, narrowed to the pointed type's closure when
  the connector is statically typed with an association;
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
from dataclasses import dataclass
from enum import Enum

from .model import Class, Connector, EndRef, Model, Part, Port, _by_name


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


class OriginKind(Enum):
    FROM_PROVIDED_PORT = "provided port"
    FROM_REQUIRED_PORT = "required port"
    FROM_PART = "part"
    UNDIRECTED = "undirected"


PORT_ORIGINS = frozenset({OriginKind.FROM_PROVIDED_PORT, OriginKind.FROM_REQUIRED_PORT})


@dataclass(frozen=True)
class EndSite:
    """A connector end resolved against its owning class.

    ``part`` is None for ends naming a port of the composite itself; ``port``
    is None for bare part ends. ``on_composite`` is true when the port belongs
    to the class owning the connector.
    """

    index: int
    ref: EndRef
    part: Part | None
    part_class: Class | None
    port: Port | None
    on_composite: bool

    def describe(self) -> str:
        return self.ref.describe()


@dataclass(frozen=True)
class LinkOrigin:
    kind: OriginKind
    site: EndSite | None

    def describe(self) -> str:
        if self.site is None:
            return self.kind.value
        return self.site.describe()


@dataclass(frozen=True)
class TransportedSet:
    """The dynamic type of a connector.

    ``computable`` is false for part-part links (no port closure bounds the
    channel) and for links typed with an association that has no navigable end.
    """

    interfaces: frozenset[str]
    computable: bool


# A named tuple rather than a dataclass: defining a dataclass costs about a
# millisecond at import, and every CLI call pays for it.
class ConnectorTyping(namedtuple("ConnectorTyping", "kind ends origin transported")):
    """Everything derived about one connector, in terms of its owning class: its
    :class:`LinkKind`, both :class:`EndSite` s, its :class:`LinkOrigin` and its
    :class:`TransportedSet`."""

    __slots__ = ()


_EMPTY: frozenset[str] = frozenset()


def _classify(s1: EndSite, s2: EndSite) -> LinkKind:
    """Classify a connector by its end shapes and port directions.

    Port-port links with one port on the composite are delegations and need
    matching directions. Port-port links between parts are assemblies and need
    opposite directions. Part-port links are assemblies when the port sits on
    a part and delegations when it sits on the composite. Two ports of the
    composite itself fall under the assembly case.
    """
    p1, p2 = s1.port, s2.port
    if p1 is None and p2 is None:
        return LinkKind.ASSEMBLY_PART_PART
    if p1 is not None and p2 is not None:
        if s1.on_composite != s2.on_composite:
            if not p1.reversed and not p2.reversed:
                return LinkKind.INBOUND_DELEGATION_PORT_PORT
            if p1.reversed and p2.reversed:
                return LinkKind.OUTBOUND_DELEGATION_PORT_PORT
            return LinkKind.FORBIDDEN
        if p1.reversed != p2.reversed:
            return LinkKind.ASSEMBLY_PORT_PORT
        return LinkKind.FORBIDDEN
    port_site = s1 if p1 is not None else s2
    port = port_site.port
    assert port is not None
    if not port_site.on_composite:
        return (LinkKind.ASSEMBLY_PART_REQUIRED_PORT if port.reversed
                else LinkKind.ASSEMBLY_PART_PROVIDED_PORT)
    return (LinkKind.OUTBOUND_DELEGATION_PART_PORT if port.reversed
            else LinkKind.INBOUND_DELEGATION_PART_PORT)


def _origin(kind: LinkKind, s1: EndSite, s2: EndSite) -> LinkOrigin:
    """The end a connector's requests flow away from.

    Inbound delegations start at the composite's provided port; outbound
    delegations between ports start at the inner component's required port;
    assemblies start at the required port when one exists, otherwise at the
    part. Part-part links start at their first end.
    """
    if kind is LinkKind.FORBIDDEN:
        return LinkOrigin(OriginKind.UNDIRECTED, None)
    if kind is LinkKind.ASSEMBLY_PART_PART:
        return LinkOrigin(OriginKind.FROM_PART, s1)
    if kind is LinkKind.INBOUND_DELEGATION_PORT_PORT:
        site = s1 if s1.on_composite else s2
        return LinkOrigin(OriginKind.FROM_PROVIDED_PORT, site)
    if kind is LinkKind.OUTBOUND_DELEGATION_PORT_PORT:
        site = s1 if not s1.on_composite else s2
        return LinkOrigin(OriginKind.FROM_REQUIRED_PORT, site)
    if kind is LinkKind.ASSEMBLY_PORT_PORT:
        site = s1 if (s1.port is not None and s1.port.reversed) else s2
        return LinkOrigin(OriginKind.FROM_REQUIRED_PORT, site)
    port_site = s1 if s1.port is not None else s2
    part_site = s2 if s1.port is not None else s1
    if kind is LinkKind.ASSEMBLY_PART_REQUIRED_PORT:
        return LinkOrigin(OriginKind.FROM_REQUIRED_PORT, port_site)
    if kind is LinkKind.ASSEMBLY_PART_PROVIDED_PORT:
        return LinkOrigin(OriginKind.FROM_PART, part_site)
    if kind is LinkKind.INBOUND_DELEGATION_PART_PORT:
        return LinkOrigin(OriginKind.FROM_PROVIDED_PORT, port_site)
    return LinkOrigin(OriginKind.FROM_PART, part_site)  # outbound delegation part-port


class TypingIndex:
    """Name lookups, closures and connector typing of one model, each derived once.

    Closures and connector records are computed on first use and kept as
    frozensets and frozen records, so every reader shares one result. The
    model must not change while the index is in use.
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
        self._members: dict[int, tuple[dict[str, Part], dict[str, Port]]] = {}
        self._connectors: dict[tuple[int, int], ConnectorTyping] = {}
        self._outgoing: dict[int, list[tuple[Class, int, Connector]]] | None = None

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

    def _fold(self, name: str, memo: dict[str, frozenset[str]], own) -> frozenset[str]:
        """The union of ``own(c)`` over the classifier ``name`` and all its ancestors.

        Generals are walked in post-order with an explicit stack, so every
        ancestor's union is built once from its generals' unions and deep
        hierarchies need no recursion. Results stay small (interface sets),
        unlike the ancestor sets themselves. A cycle, which only a model
        failing integrity has, falls back to a walk over :meth:`parents`.
        """
        found = memo.get(name)
        if found is not None:
            return found
        on_path = {name}
        stack = [(name, iter(self._generals(name)))]
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

    def interface_closure(self, name: str) -> frozenset[str]:
        """The interface itself plus its ancestors, with interface groups rejected."""
        found = self._interface_closures.get(name)
        if found is None:
            found = self._interface_closures[name] = frozenset(
                c for c in (name, *self.parents(name))
                if c in self.interfaces and not self.interfaces[c].is_group)
        return found

    def _expanded(self, name: str, attribute: str) -> frozenset[str]:
        """The closures of the interfaces class ``name`` itself realizes or uses."""
        cls = self.classes.get(name)
        if cls is None:
            return _EMPTY
        return _EMPTY.union(*map(self.interface_closure, getattr(cls, attribute)))

    def class_interfaces(self, name: str) -> frozenset[str]:
        """Interfaces a class provides: realized directly or via any ancestor class,
        expanded to the realized interfaces' ancestors, groups rejected."""
        return self._fold(name, self._class_interfaces, lambda c: self._expanded(c, "realizes"))

    def used_interfaces(self, name: str) -> frozenset[str]:
        """Interfaces a class uses, directly or via any ancestor class, expanded
        to the used interfaces' ancestors, groups rejected."""
        return self._fold(name, self._used_interfaces, lambda c: self._expanded(c, "usages"))

    def port_interfaces(self, port: Port) -> frozenset[str]:
        """The interfaces a port provides (or requires, when reversed)."""
        return self.interface_closure(port.contract)

    def provided_interfaces(self, name: str) -> frozenset[str]:
        """Polymorphic interface set of a classifier name (class or interface)."""
        if name in self.interfaces:
            return self.interface_closure(name)
        if name in self.classes:
            return self.class_interfaces(name)
        return _EMPTY

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

    def _members_of(self, cls: Class) -> tuple[dict[str, Part], dict[str, Port]]:
        found = self._members.get(id(cls))
        if found is None:
            found = self._members[id(cls)] = (_by_name(cls.parts), _by_name(cls.ports))
        return found

    def part(self, cls: Class, name: str) -> Part | None:
        return self._members_of(cls)[0].get(name)

    def port(self, cls: Class, name: str) -> Port | None:
        return self._members_of(cls)[1].get(name)

    def resolve_end(self, owner: Class, ref: EndRef, index: int) -> EndSite:
        part = self.part(owner, ref.part) if ref.part else None
        part_class = self.classes.get(part.type) if part else None
        if ref.port is None:
            port = None
            on_composite = False
        elif part_class is not None:
            port = self.port(part_class, ref.port)
            on_composite = False
        else:
            port = self.port(owner, ref.port) if ref.part is None else None
            on_composite = ref.part is None
        return EndSite(index=index, ref=ref, part=part, part_class=part_class,
                       port=port, on_composite=on_composite)

    def connector(self, owner: Class, conn: Connector) -> ConnectorTyping:
        """Kind, resolved ends, origin and transported set of a connector of ``owner``."""
        key = (id(owner), id(conn))
        found = self._connectors.get(key)
        if found is None:
            s1 = self.resolve_end(owner, conn.end1, 1)
            s2 = self.resolve_end(owner, conn.end2, 2)
            kind = _classify(s1, s2)
            origin = _origin(kind, s1, s2)
            found = self._connectors[key] = ConnectorTyping(
                kind, (s1, s2), origin, self._transported(conn, kind, s1, s2, origin))
        return found

    def _end_interface_set(self, site: EndSite) -> frozenset[str]:
        if site.port is not None:
            return self.port_interfaces(site.port)
        if site.part is not None:
            return self.class_interfaces(site.part.type)
        return _EMPTY

    def _transported(self, conn: Connector, kind: LinkKind, s1: EndSite, s2: EndSite,
                     origin: LinkOrigin) -> TransportedSet:
        """The set of interfaces a connector can carry.

        Untyped: intersection of the two end interface sets (a port contributes
        its contract closure, a part the interfaces its class provides). Typed:
        the origin-side port closure intersected with the pointed type's closure,
        so the association narrows the channel. Not computable for part-part
        links, forbidden links, or associations with no navigable end.
        """
        if kind in (LinkKind.ASSEMBLY_PART_PART, LinkKind.FORBIDDEN):
            return TransportedSet(frozenset(), False)
        assoc = self.associations.get(conn.association) if conn.association else None
        if assoc is not None:
            pointed = assoc.pointed_end()
            if pointed is None:
                return TransportedSet(frozenset(), False)
            if origin.kind in PORT_ORIGINS:
                base_site = origin.site
            else:
                base_site = s1 if s1.port is not None else s2
            assert base_site is not None and base_site.port is not None
            base = self.port_interfaces(base_site.port)
            return TransportedSet(base & self.provided_interfaces(pointed.type), True)
        return TransportedSet(self._end_interface_set(s1) & self._end_interface_set(s2), True)

    def outgoing(self, port: Port) -> list[tuple[Class, int, Connector]]:
        """Connectors anywhere in the model that originate at this port
        declaration, in ``Model.iter_connectors`` order. Do not mutate."""
        if self._outgoing is None:
            self._outgoing = {}
            for owner, idx, conn in self.model.iter_connectors():
                origin = self.connector(owner, conn).origin
                if origin.kind in PORT_ORIGINS and origin.site.port is not None:
                    self._outgoing.setdefault(id(origin.site.port), []).append((owner, idx, conn))
        return self._outgoing.get(id(port), [])


def parents_of(model: Model, name: str) -> set[str]:
    """Transitive closure of a classifier's generals, excluding itself."""
    return set(TypingIndex(model).parents(name))
