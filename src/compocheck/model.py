"""Core representation of hierarchical component models.

A :class:`Model` is a flat, name-keyed universe of interfaces, classes and
associations. Composite structure lives inside classes: role-named parts,
contract-typed ports and binary connectors between two end references. All
cross references are plain names; :func:`validate_integrity` guarantees they
resolve before any derived computation runs.

Ports are unidirectional: a port provides its contract unless it is marked
``reversed``, in which case it requires it. Every non-group interface ``I``
owns a default forwarding association ``deleg_I`` (an ``I`` to ``I``
association whose second end is navigable); :func:`synthesize_deleg_associations`
adds the ones a model omits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .diagnostics import Diagnostic, SourceSpan, error

DELEG_PREFIX = "deleg_"


def deleg_name(interface_name: str) -> str:
    return DELEG_PREFIX + interface_name


class ClassKind(str, Enum):
    ACTIVE = "active"
    PASSIVE = "passive"
    PROTECTED = "protected"
    OBSERVER = "observer"


@dataclass(slots=True)
class Interface:
    name: str
    generals: list[str] = field(default_factory=list)
    is_group: bool = False
    operations: list[str] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Attribute:
    name: str
    type: str


@dataclass(slots=True)
class Part:
    """A role-named instance slot inside a composite class."""

    name: str
    type: str
    multiplicity: int = 1
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Port:
    name: str
    contract: str
    reversed: bool = False
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class EndRef:
    """One connector end: a part, a port of a part, or a port of the owner.

    Exactly one of the three shapes is legal: ``part`` alone, ``part`` plus
    ``port`` (the port belongs to the part's class), or ``port`` alone (the
    port belongs to the class owning the connector).
    """

    part: str | None = None
    port: str | None = None

    def describe(self) -> str:
        if self.part and self.port:
            return f"{self.part}.{self.port}"
        if self.part:
            return self.part
        return f"self.{self.port}"  # integrity refuses an end with neither (E006)


@dataclass(slots=True)
class Connector:
    end1: EndRef
    end2: EndRef
    association: str | None = None
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class AssociationEnd:
    type: str
    navigable: bool = False


@dataclass(slots=True)
class Association:
    name: str
    end1: AssociationEnd
    end2: AssociationEnd
    is_deleg_default: bool = False
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def is_bidirectional(self) -> bool:
        return self.end1.navigable and self.end2.navigable

    @property
    def is_non_navigable(self) -> bool:
        return not (self.end1.navigable or self.end2.navigable)

    def pointed_end(self) -> AssociationEnd | None:
        """The end requests are sent toward; end2 wins for bidirectional ones."""
        if self.end2.navigable:
            return self.end2
        if self.end1.navigable:
            return self.end1
        return None

    def start_end(self) -> AssociationEnd | None:
        if self.end2.navigable:
            return self.end1
        if self.end1.navigable:
            return self.end2
        return None


@dataclass(slots=True)
class Class:
    name: str
    kind: ClassKind = ClassKind.PASSIVE
    generals: list[str] = field(default_factory=list)
    realizes: list[str] = field(default_factory=list)
    usages: list[str] = field(default_factory=list)
    attributes: list[Attribute] = field(default_factory=list)
    parts: list[Part] = field(default_factory=list)
    ports: list[Port] = field(default_factory=list)
    connectors: list[Connector] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def is_composite(self) -> bool:
        return bool(self.parts)

    def find_part(self, name: str) -> Part | None:
        for part in self.parts:
            if part.name == name:
                return part
        return None

    def find_port(self, name: str) -> Port | None:
        for port in self.ports:
            if port.name == name:
                return port
        return None


@dataclass(slots=True)
class Model:
    interfaces: list[Interface] = field(default_factory=list)
    classes: list[Class] = field(default_factory=list)
    associations: list[Association] = field(default_factory=list)
    root: str | None = None

    def find_interface(self, name: str) -> Interface | None:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        return None

    def find_class(self, name: str) -> Class | None:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def find_association(self, name: str) -> Association | None:
        for assoc in self.associations:
            if assoc.name == name:
                return assoc
        return None

    def find_classifier(self, name: str) -> Interface | Class | Association | None:
        return self.find_interface(name) or self.find_class(name) or self.find_association(name)

    def connector_path(self, cls: Class, index: int) -> str:
        return f"{cls.name}#{index}"

    def member_path(self, cls: Class, name: str) -> str:
        return f"{cls.name}.{name}"

    def iter_connectors(self):
        """Yield (owning class, index, connector) in declaration order."""
        for cls in self.classes:
            for idx, conn in enumerate(cls.connectors):
                yield cls, idx, conn


class ModelError(Exception):
    """Base for errors carrying structured diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))


class IntegrityError(ModelError, ValueError):
    """The model fails integrity validation (codes E001-E010)."""


class DelegConflictError(ModelError):
    """A user element occupies a ``deleg_`` name a synthesized association needs."""


class UnknownPathError(ModelError):
    """An element path did not resolve (code E005)."""


def _by_name(elements: list) -> dict:
    """Name -> element, the first declaration winning as in ``Model.find_*``."""
    out = {element.name: element for element in elements}
    if len(out) < len(elements):  # a later declaration replaced an earlier one
        out = {}
        for element in elements:
            out.setdefault(element.name, element)
    return out


def _duplicates(names: list[str]) -> list[str]:
    if len(set(names)) == len(names):
        return []
    seen: set[str] = set()
    dups: list[str] = []
    for name in names:
        if name in seen and name not in dups:
            dups.append(name)
        seen.add(name)
    return dups


def _cycles(pairs: list[tuple[str, list[str]]]) -> list[list[str]]:
    """Cycles in a name -> successors graph, each reported once, in declaration order.

    First a proof of acyclicity in one pass over the edges: when every edge
    that stays inside the graph points to a name declared earlier (a bottom-up
    file), or every one to a name declared later (a top-down file), the
    declaration order is a topological order of the graph, so it has no cycle.
    A name declared more than once takes the position of its last
    declaration, whose successors are the ones the search reads. A self-loop
    or edges pointing both ways leave the question to the search.

    The search is depth-first with an explicit stack, so arbitrarily deep
    hierarchies need no recursion. A cycle sharing a name with one already
    reported is not reported again. A name with no successor in the graph is
    on no cycle, so it starts out done, as the search would leave it.
    """
    position = {name: i for i, (name, _) in enumerate(pairs)}
    earlier = later = False
    for i, (_, succs) in enumerate(pairs):
        for succ in succs:
            j = position.get(succ, i)  # a name outside the graph is skipped
            if j < i:
                earlier = True
            elif j > i:
                later = True
            elif succ in position:  # a self-loop
                earlier = later = True
        if earlier and later:
            break
    else:
        return []
    names = position.keys()
    graph = {name: [s for s in succs if s in names] for name, succs in pairs}
    done = {name for name, succs in graph.items() if not succs}
    cycles: list[list[str]] = []
    in_cycle: set[str] = set()

    for name, _ in pairs:
        if name in done:
            continue
        path = [name]                # the names on the search path, outermost first
        depth = {name: 0}            # name on the path -> its position in ``path``
        pending = [iter(graph[name])]
        while pending:
            for succ in pending[-1]:
                if succ in depth:
                    cycle = path[depth[succ]:]
                    if in_cycle.isdisjoint(cycle):
                        cycles.append(cycle)
                        in_cycle.update(cycle)
                elif succ not in done:
                    depth[succ] = len(path)
                    path.append(succ)
                    pending.append(iter(graph[succ]))
                    break
            else:
                pending.pop()
                node = path.pop()
                del depth[node]
                done.add(node)
    return cycles


def validate_integrity(model: Model) -> list[Diagnostic]:
    """Referential and structural sanity of a model (codes E001-E010).

    Returns an empty list exactly when every cross reference resolves to an
    element of the right kind, names are unique within their namespace, the
    generalization and containment graphs are acyclic, and parts/ports/connectors
    are shaped legally. Connector associations named ``deleg_I`` for a declared
    non-group interface ``I`` are accepted even before synthesis runs.
    """
    diags: list[Diagnostic] = []

    def emit(code: str, subject: str, message: str, related: list[str] | None = None) -> None:
        diags.append(error(code, subject, message, related))

    classifier_names = (
        [i.name for i in model.interfaces]
        + [c.name for c in model.classes]
        + [a.name for a in model.associations]
    )
    declared = set(classifier_names)
    if len(declared) < len(classifier_names):
        for name in _duplicates(classifier_names):
            emit("E002", name, f"the classifier name '{name}' is declared more than once")
    interfaces = _by_name(model.interfaces)
    classes = _by_name(model.classes)
    port_names: dict[int, set[str]] = {}  # id(class) -> its port names, once an end reads them
    member = model.member_path
    # A connector may name a deleg_I association before synthesis adds it.
    connector_types = {a.name for a in model.associations} | {
        deleg_name(i.name) for i in interfaces.values() if not i.is_group}

    # Every check below tests membership first; subjects and messages are
    # formatted only for what is reported.
    def misplaced(name: str, subject: str, wrong_kind: str, undeclared: str, *fields: str) -> None:
        """E009 when ``name``, found outside the namespace it must be in, names
        another classifier, E001 when it names none.

        The messages are formatted with ``name`` as ``{0}`` and ``fields`` after it.
        """
        if name in declared:
            emit("E009", subject, wrong_kind.format(name, *fields))
        else:
            emit("E001", subject, undeclared.format(name, *fields))

    for iface in model.interfaces:
        for gen in iface.generals:
            if gen not in interfaces:
                misplaced(gen, iface.name, "general '{0}' of interface '{1}' is not an interface",
                          "interface '{1}' inherits undeclared interface '{0}'", iface.name)
        if iface.is_group and len(iface.generals) < 2:
            emit("E008", iface.name, f"interface group '{iface.name}' must bundle at least two interfaces")

    for cls in model.classes:
        if len(cls.parts) + len(cls.ports) > 1:
            for name in _duplicates([p.name for p in cls.parts] + [p.name for p in cls.ports]):
                emit("E002", member(cls, name), f"class '{cls.name}' declares '{name}' more than once")
        for gen in cls.generals:
            if gen not in classes:
                misplaced(gen, cls.name, "general '{0}' of class '{1}' is not a class",
                          "class '{1}' inherits undeclared class '{0}'", cls.name)
        for ref in cls.realizes:
            if ref not in interfaces:
                misplaced(ref, cls.name, "'{1}' realizes '{0}', which is not an interface",
                          "'{1}' realizes undeclared interface '{0}'", cls.name)
        for ref in cls.usages:
            if ref not in interfaces:
                misplaced(ref, cls.name, "'{1}' uses '{0}', which is not an interface",
                          "'{1}' uses undeclared interface '{0}'", cls.name)
        for attr in cls.attributes:
            if attr.type not in declared:
                emit("E001", member(cls, attr.name), f"attribute type '{attr.type}' is not declared")
        for part in cls.parts:
            if part.type not in classes:
                misplaced(part.type, member(cls, part.name),
                          "part '{1}' is typed by '{0}', which is not a class",
                          "part '{1}' is typed by undeclared class '{0}'", part.name)
            if part.multiplicity < 1:
                emit("E007", member(cls, part.name),
                     f"part '{part.name}' has multiplicity {part.multiplicity}; it must be at least 1")
        for port in cls.ports:
            if port.contract not in interfaces:
                misplaced(port.contract, member(cls, port.name),
                          "port contract '{0}' is not an interface",
                          "port '{1}' has undeclared contract '{0}'", port.name)
        if not cls.connectors:
            continue
        parts = _by_name(cls.parts)
        own_ports = port_names[id(cls)] = {port.name for port in cls.ports}
        for idx, conn in enumerate(cls.connectors):
            for ref in (conn.end1, conn.end2):
                if ref.part is None and ref.port is None:
                    emit("E006", model.connector_path(cls, idx),
                         "connector end names neither a part nor a port")
                elif ref.part is not None:
                    part = parts.get(ref.part)
                    if part is None:
                        emit("E001", model.connector_path(cls, idx),
                             f"connector end names unknown part '{ref.part}'")
                    elif ref.port is not None and (part_cls := classes.get(part.type)) is not None:
                        names = port_names.get(id(part_cls))
                        if names is None:
                            names = port_names[id(part_cls)] = {port.name for port in part_cls.ports}
                        if ref.port not in names:
                            emit("E001", model.connector_path(cls, idx),
                                 f"part '{ref.part}' of type '{part.type}' has no port '{ref.port}'")
                elif ref.port not in own_ports:
                    emit("E001", model.connector_path(cls, idx),
                         f"class '{cls.name}' has no port '{ref.port}'")
            if conn.association is not None and conn.association not in connector_types:
                emit("E001", model.connector_path(cls, idx),
                     f"connector is typed with undeclared association '{conn.association}'")

    end_types = interfaces.keys() | classes.keys()
    for assoc in model.associations:
        for end in (assoc.end1, assoc.end2):
            if end.type not in end_types:
                misplaced(end.type, assoc.name, "association end type '{0}' is an association",
                          "association end type '{0}' is not declared")

    for cycle in _cycles([(i.name, i.generals) for i in model.interfaces]):
        emit("E003", cycle[0], "generalization cycle: " + " -> ".join(cycle + [cycle[0]]), cycle[1:])
    for cycle in _cycles([(c.name, c.generals) for c in model.classes]):
        emit("E003", cycle[0], "generalization cycle: " + " -> ".join(cycle + [cycle[0]]), cycle[1:])
    # A class without parts is on no containment cycle; leaving it out keeps
    # the search to the composites.
    for cycle in _cycles([(c.name, [p.type for p in c.parts]) for c in model.classes if c.parts]):
        emit("E010", cycle[0], "containment cycle: " + " -> ".join(cycle + [cycle[0]]), cycle[1:])

    if model.root is not None and model.root not in classes:
        emit("E001", model.root, f"root class '{model.root}' is not declared")

    diags.sort(key=Diagnostic.sort_key)
    return diags


def synthesize_deleg_associations(model: Model) -> Model:
    """Add the default ``deleg_I`` association for every non-group interface.

    Idempotent: interfaces that already own a compatible ``deleg_I`` (both ends
    typed by ``I``, at least one navigable) are left alone. A user element that
    occupies a needed ``deleg_`` name with an incompatible shape raises
    :class:`DelegConflictError` (code E004).
    """
    interfaces = _by_name(model.interfaces)
    classes = _by_name(model.classes)
    associations = _by_name(model.associations)
    conflicts: list[Diagnostic] = []
    additions: list[Association] = []
    for iface in model.interfaces:
        if iface.is_group:
            continue
        name = deleg_name(iface.name)
        existing = interfaces.get(name) or classes.get(name) or associations.get(name)
        if existing is None:
            additions.append(Association(name, AssociationEnd(iface.name, False),
                                         AssociationEnd(iface.name, True), True))
            continue
        if isinstance(existing, Association):
            if existing.end1.type == iface.name and existing.end2.type == iface.name \
                    and not existing.is_non_navigable:
                continue
            conflicts.append(error(
                "E004", name,
                f"association '{name}' must connect '{iface.name}' to itself with a navigable end "
                f"to serve as the default forwarding association",
            ))
        else:
            conflicts.append(error(
                "E004", name,
                f"the name '{name}' is reserved for the default forwarding association of '{iface.name}'",
            ))
    if conflicts:
        raise DelegConflictError(conflicts)
    if not additions:
        return model
    return replace(model, associations=model.associations + additions)


def without_synthesized(model: Model) -> Model:
    """A copy of the model with synthesized deleg associations removed."""
    return replace(model, associations=[a for a in model.associations
                                        if not a.is_deleg_default])


def split_path(path: str) -> tuple[str, str, str]:
    """The first reading of an element path: split at its first ``#``, else at
    its first ``.``, as ``(name, separator, rest)``; ``(path, '', '')`` if neither."""
    return path.partition("#" if "#" in path else ".")


def _lookup(model: Model, name: str, sep: str, rest: str):
    """The element and owner one reading of a path names, or why none is named."""
    if not sep:
        element = model.find_classifier(name)
        return f"no element named '{name}'" if element is None else (element, None)
    cls = model.find_class(name)
    if cls is None:
        return f"no class named '{name}'"
    if sep == ".":
        element = cls.find_part(rest) or cls.find_port(rest)
        if element is None:
            return f"class '{name}' has no part or port named '{rest}'"
        return element, cls
    try:  # ASCII digits only: int() also takes blanks, signs, '_' and other digits
        index = int(rest) if rest.isascii() and rest.isdigit() else None
    except ValueError:  # more digits than int() converts
        index = None
    if index is None:
        return f"'{rest}' is not a connector index"
    if not 0 <= index < len(cls.connectors):
        return f"class '{name}' has {len(cls.connectors)} connectors; index {index} is out of range"
    return cls.connectors[index], cls


def resolve(model: Model, path: str) -> tuple:
    """The element a path names, as ``Model.connector_path`` and
    ``Model.member_path`` print them (``Name``, ``Class.member``, ``Class#index``),
    and the class declaring it (None for a classifier).

    Names may hold ``#`` and ``.``: when the :func:`split_path` reading names
    nothing, the path is split at each other ``#`` or ``.`` from the left, then
    read whole, and the first reading that names an element wins. If none does,
    raises :class:`UnknownPathError` (code E005) saying why the first failed.
    """
    first = len(split_path(path)[0])
    others = [i for i, char in enumerate(path) if char in "#." and i != first]
    failure = None
    for cut in dict.fromkeys([first, *others, len(path)]):
        found = _lookup(model, path[:cut], path[cut:cut + 1], path[cut + 1:])
        if found.__class__ is not str:
            return found
        failure = failure or found
    raise UnknownPathError([error("E005", path, failure)])
