"""Well-formedness checks over component models.

Codes:

* W000 - ports must be unidirectional (split bidirectional ports).
* W001 - delegation links need ports of the same direction.
* W002 - assembly links need one required and one provided port.
* W003 - a typing association's navigability, kind and ends must match the link.
* W004 - a typed link from a port must point inside its transported set.
* W005 - links starting from a part must be typed with an association.
* W006 - a link must transport at least one interface.
* W007 - untyped links out of one port must transport pairwise disjoint sets.
* W008 - links out of a port must together cover its full contract closure.
* W009 - passive composites may contain only passive parts.
* W010 - active composites need all-passive or all active/protected parts.
* W011 - observer composites may contain only observer parts.

Each rule, and the report notes, take one
:class:`~compocheck.type_system.TypingIndex` and read the model
(``index.model``), its closures and its connector records
(``index.links()``) from it: a link starts from a part when its ``origin``
end has no port, and its ``transported`` set is None where it is not
computable. :func:`prepare` runs the front stages once per verdict (integrity
validation, deleg synthesis, then the index of the synthesized model);
:func:`run_rules` runs the rules in order over that index and returns a
deterministic report (diagnostics sorted by element path then code);
:func:`check_model` does both. To run one rule alone, call it as
``rule(TypingIndex(model))``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Severity, error
from .model import (Class, ClassKind, IntegrityError, Model, synthesize_deleg_associations,
                    validate_integrity)
from .type_system import ConnectorTyping, LinkKind, TypingIndex

# Enum members the per-element loops read, as module globals: a read through
# the enum class costs a metaclass lookup (~0.1 µs).
_FORBIDDEN_KIND, _PART_PART = LinkKind.FORBIDDEN, LinkKind.ASSEMBLY_PART_PART
_ACTIVE, _PASSIVE, _PROTECTED, _OBSERVER = ClassKind


@dataclass
class CheckReport:
    diagnostics: list[Diagnostic]
    stats: dict[str, int]
    passed: bool
    notes: list[str] = field(default_factory=list)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stats": dict(sorted(self.stats.items())),
            "notes": list(self.notes),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def code_counts(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """Number of diagnostics per code, in code order."""
    return dict(sorted(Counter(d.code for d in diagnostics).items()))


def _fmt_set(names: Iterable[str]) -> str:
    inner = ", ".join(sorted(names))
    return "{" + inner + "}"


def rule_unidirectional(index: TypingIndex) -> list[Diagnostic]:
    """W000: a port may carry one direction only.

    Flags a port when some interface in its closure is both provided and used
    by the owner, when a non-reversed port carries an interface the owner
    uses, or when the owner has used interfaces with no reversed port to carry
    them (which presses the provided ports into bidirectional service).
    """
    diags: list[Diagnostic] = []
    for cls in index.model.classes:
        if not cls.ports:  # nothing to flag, so no closure to build
            continue
        used = index.used_interfaces(cls.name)
        if not used:  # every reason below names an interface the owner uses
            continue
        realized = index.class_interfaces(cls.name)
        covered: set[str] = set()
        for port in cls.ports:
            if port.reversed:
                covered |= index.port_interfaces(port)
        uncovered = used - covered
        for port in cls.ports:
            closure = index.port_interfaces(port)
            both = closure & used & realized
            out_through_provided = set() if port.reversed else closure & used
            reasons: list[str] = []
            if both:
                reasons.append(f"the owner both realizes and uses {_fmt_set(both)}")
            if out_through_provided - both:
                reasons.append(
                    f"the port provides {_fmt_set(out_through_provided - both)}, "
                    f"which the owner also uses")
            if not port.reversed and uncovered and not reasons:
                reasons.append(
                    f"the owner uses {_fmt_set(uncovered)} but has no reversed port to "
                    f"carry outgoing requests")
            if reasons:
                diags.append(error(
                    "W000", index.model.member_path(cls, port.name),
                    "port is effectively bidirectional: " + "; ".join(reasons)
                    + ". Split it into a provided port and a reversed (required) port.",
                ))
    return diags


def rule_link_type(index: TypingIndex) -> list[Diagnostic]:
    """W001/W002: forbidden direction combinations of port ends."""
    diags: list[Diagnostic] = []
    for link in index.links():
        if link.kind is not _FORBIDDEN_KIND:
            continue
        s1, s2 = link.ends
        subject = link.path
        dir1 = "required" if s1.port is not None and s1.port.reversed else "provided"
        dir2 = "required" if s2.port is not None and s2.port.reversed else "provided"
        if s1.on_composite != s2.on_composite:
            diags.append(error(
                "W001", subject,
                f"delegation link between a {dir1} port ({s1.describe()}) and a {dir2} port "
                f"({s2.describe()}): both ports of a delegation link must have the same direction",
            ))
        else:
            diags.append(error(
                "W002", subject,
                f"assembly link between two {dir1} ports ({s1.describe()}, {s2.describe()}): "
                f"one end must be a reversed (required) port and the other a provided port",
            ))
    return diags


def _association_finding(index: TypingIndex, link: ConnectorTyping) -> Diagnostic | None:
    """The one W003 or W004 finding of a typed, non-forbidden link, or None.

    W003 covers the association's navigability (at least one navigable end;
    bidirectional only on class-class associations typing part-part links),
    the admissible association kind for the link shape, and, for links
    starting from a part, the compatibility of the link ends with the
    association ends. W004 covers the ends of a link starting from a port
    whose association passed the first two checks: the pointed type must be
    transported, and both link ends must cover the association ends.
    """
    kind, assoc = link.kind, link.association
    if assoc.is_non_navigable:
        return error("W003", link.path, f"association '{assoc.name}' is not navigable at either "
                     f"end, so the connector has no direction and is not well-formed", [assoc.name])
    if assoc.is_bidirectional:
        if kind is not _PART_PART:
            why = "may only type a link between two parts"
        elif assoc.end1.type not in index.classes or assoc.end2.type not in index.classes:
            why = "must connect two classes"
        else:
            t1, t2 = (site.part.type for site in link.ends)
            compatible = index.classifier_compatible
            if (compatible(t1, assoc.end1.type) and compatible(t2, assoc.end2.type)) or \
                    (compatible(t1, assoc.end2.type) and compatible(t2, assoc.end1.type)):
                return None
            return error("W003", link.path, f"neither orientation of bidirectional association "
                         f"'{assoc.name}' ({assoc.end1.type} -- {assoc.end2.type}) matches the "
                         f"part types ({t1}, {t2})", [assoc.name])
        return error("W003", link.path, f"bidirectional association '{assoc.name}' {why}",
                     [assoc.name])
    start, pointed = assoc.start_end(), assoc.pointed_end()
    origin, far = link.origin, link.far
    from_part = origin.port is None
    if kind is not _PART_PART and not (pointed.type in index.interfaces and (
            from_part or start.type in index.interfaces)):
        if origin.port is not None and far.port is not None:
            why = "a link between two ports accepts only an association between two interfaces"
        elif from_part:
            why = ("a link from a part to a port accepts only an association between two "
                   "interfaces or a class-to-interface association pointing at the interface")
        else:
            why = ("a link from a port to a part accepts only an association between two "
                   "interfaces (class ends cannot govern the port side) (accepted here in no "
                   "other form; a port-to-part link admits only interface ends)")
        return error("W003", link.path,
                     f"association '{assoc.name}' cannot type this {kind.value}: {why}", [assoc.name])
    problems: list[str] = []
    if from_part:
        if not index.classifier_compatible(origin.part.type, start.type):
            problems.append(f"start end '{start.type}' does not match part '{origin.part.name}' "
                            f"of type '{origin.part.type}'")
    else:
        if pointed.type not in link.transported:
            problems.append(f"pointed type '{pointed.type}' is not in the transported set "
                            f"{_fmt_set(link.transported)}")
        if not index.port_compatible(origin.port, start.type):
            problems.append(f"start end '{start.type}' is not covered by the originating port "
                            f"(closure {_fmt_set(index.port_interfaces(origin.port))})")
    if far.port is not None:
        if not index.port_compatible(far.port, pointed.type):
            problems.append(
                f"pointed end '{pointed.type}' is not covered by port '{far.describe()}' "
                f"(contract closure {_fmt_set(index.port_interfaces(far.port))})" if from_part
                else f"pointed type '{pointed.type}' is not covered by the far port "
                     f"'{far.describe()}'")
    elif not index.classifier_compatible(far.part.type, pointed.type):
        problems.append(
            f"pointed end '{pointed.type}' does not match part '{far.part.name}' of type "
            f"'{far.part.type}'" if from_part
            else f"pointed type '{pointed.type}' does not match the far part '{far.part.name}' "
                 f"of type '{far.part.type}'")
    if not problems:
        return None
    if from_part:
        return error("W003", link.path, f"association '{assoc.name}' does not fit the link: "
                     + "; ".join(problems), [assoc.name])
    return error("W004", link.path, f"association '{assoc.name}' mis-types this link: "
                 + "; ".join(problems), [assoc.name])


def _association_findings(index: TypingIndex, code: str) -> list[Diagnostic]:
    found = (_association_finding(index, link) for link in index.links()
             if link.association is not None and link.kind is not _FORBIDDEN_KIND)
    return [diag for diag in found if diag is not None and diag.code == code]


def rule_association_direction(index: TypingIndex) -> list[Diagnostic]:
    """W003: the typing association's direction, kind and ends must fit the
    link (see :func:`_association_finding`)."""
    return _association_findings(index, "W003")


def rule_typed_from_port(index: TypingIndex) -> list[Diagnostic]:
    """W004: a typed link out of a port must point inside its transported set,
    and both link ends must cover the association ends (see
    :func:`_association_finding`)."""
    return _association_findings(index, "W004")


def rule_typed_from_part(index: TypingIndex) -> list[Diagnostic]:
    """W005: every link starting from a part must carry an association,
    because the component needs a name under which to address the channel."""
    diags: list[Diagnostic] = []
    for link in index.links():
        origin = link.origin
        if origin is not None and origin.port is None and link.connector.association is None:
            diags.append(error(
                "W005", link.path,
                f"link starting from part '{origin.part.name}' must be statically typed with an "
                f"association; without one the component cannot refer to the channel",
            ))
    return diags


def rule_nonvoid(index: TypingIndex) -> list[Diagnostic]:
    """W006: a link whose transported set is computable must carry something."""
    diags: list[Diagnostic] = []
    for link in index.links():
        if link.transported is not None and not link.transported:
            s1, s2 = link.ends
            diags.append(error(
                "W006", link.path,
                f"link {s1.describe()} -- {s2.describe()} transports no interfaces: "
                f"the interface sets at its two ends are disjoint",
            ))
    return diags


def rule_pairwise_disjoint(index: TypingIndex) -> list[Diagnostic]:
    """W007: untyped links out of one port must not overlap, or the default
    per-interface forwarding destination would be ambiguous."""
    diags: list[Diagnostic] = []
    for path, port, _ in index.port_origins().values():
        _, untyped, overlap, _, _ = index.fanout(port)
        if overlap:
            diags.append(error(
                "W007", path,
                f"untyped links out of this port transport overlapping interfaces "
                f"{_fmt_set(overlap)}; type all but one of the overlapping links with "
                f"an explicit association",
                [link.path for link in untyped],
            ))
    return diags


def rule_completeness(index: TypingIndex) -> list[Diagnostic]:
    """W008: the links out of a port must together transport its whole closure.

    A link out of a port never transports more than the port's closure (see
    :mod:`~compocheck.type_system`), so only missing interfaces are reported.
    Only ports that originate a link are judged (see the stub notes in the
    report header for ports that are not wired at all).
    """
    diags: list[Diagnostic] = []
    for path, port, _ in index.port_origins().values():
        links, _, _, union, missing = index.fanout(port)
        if missing:
            diags.append(error(
                "W008", path,
                f"links out of this port transport {_fmt_set(union)} but its contract "
                f"closure is {_fmt_set(index.port_interfaces(port))}: missing {_fmt_set(missing)}",
                [link.path for link in links],
            ))
    return diags


def _composite_finding(index: TypingIndex, cls: Class) -> Diagnostic | None:
    """The one W009, W010 or W011 finding of a composite, or None.

    The composite's kind decides which of them can fire. Passive composites
    may hold only passive parts (W009); active composites either only passive
    parts or only active and protected parts (W010); observer composites only
    observer parts (W011). Protected composites are exempt, so
    :func:`_composite_findings` passes none.
    """
    part_kinds = [(part.name, part_cls.kind) for part in cls.parts
                  if (part_cls := index.classes.get(part.type)) is not None]
    kind = cls.kind
    if kind is _PASSIVE:
        code, allowed, why = "W009", (_PASSIVE,), "must contain only passive parts"
    elif kind is _OBSERVER:
        code, allowed, why = "W011", (_OBSERVER,), "must contain only observer parts"
    elif all(k is _PASSIVE for _, k in part_kinds):  # an active composite of passive parts
        return None
    else:
        code, allowed = "W010", (_ACTIVE, _PROTECTED)
        why = ("must contain either only passive parts or only active and protected parts; "
               "mark shared passive parts as protected to make the structure valid")
    offenders = [index.model.member_path(cls, name) for name, k in part_kinds if k not in allowed]
    if not offenders:
        return None
    return error(code, cls.name, f"{kind.value} composite '{cls.name}' {why}", offenders)


def _composite_findings(index: TypingIndex, kinds: tuple[ClassKind, ...]) -> list[Diagnostic]:
    found = (_composite_finding(index, cls) for cls in index.model.classes
             if cls.kind in kinds and cls.is_composite)
    return [diag for diag in found if diag is not None]


def rule_concurrency(index: TypingIndex) -> list[Diagnostic]:
    """W009/W010: passive and active composites must not mix their parts'
    activity groups (see :func:`_composite_finding`)."""
    return _composite_findings(index, (_PASSIVE, _ACTIVE))


def rule_observer(index: TypingIndex) -> list[Diagnostic]:
    """W011: composite observers may contain only observer parts (see
    :func:`_composite_finding`)."""
    return _composite_findings(index, (_OBSERVER,))


RULES = [
    rule_unidirectional,
    rule_link_type,
    rule_association_direction,
    rule_typed_from_port,
    rule_typed_from_part,
    rule_nonvoid,
    rule_pairwise_disjoint,
    rule_completeness,
    rule_concurrency,
    rule_observer,
]


def _report_notes(index: TypingIndex) -> list[str]:
    notes: list[str] = []
    touched = {id(site.port) for link in index.links() for site in link.ends
               if site.port is not None}
    for cls in index.model.classes:
        for port in cls.ports:
            if id(port) not in touched:
                notes.append(f"port {index.model.member_path(cls, port.name)} is not connected "
                             f"to any link")
    for cls in index.model.classes:
        if cls.kind is _PROTECTED and cls.is_composite:
            notes.append(f"composite {cls.name} is protected; no concurrency rule constrains "
                         f"its parts")
    return sorted(notes)


def prepare(model: Model) -> TypingIndex:
    """The front stages, run once per verdict: integrity validation (raising
    ``IntegrityError``), deleg synthesis (raising ``DelegConflictError``), then
    the typing index of the synthesized model, which is ``index.model``."""
    integrity = validate_integrity(model)
    if integrity:
        raise IntegrityError(integrity)
    return TypingIndex(synthesize_deleg_associations(model))


def run_rules(index: TypingIndex, downgrade: Iterable[str] = ()) -> CheckReport:
    """Run every rule and build a deterministic report. Findings with a code
    in ``downgrade`` become warnings, which never fail the report."""
    downgraded = set(downgrade)
    diagnostics: list[Diagnostic] = []
    for rule in RULES:
        diagnostics.extend(rule(index))
    for diag in diagnostics:
        if diag.code in downgraded:
            diag.severity = Severity.WARNING
    diagnostics.sort(key=Diagnostic.sort_key)
    passed = not any(d.severity is Severity.ERROR for d in diagnostics)
    return CheckReport(diagnostics=diagnostics, stats=code_counts(diagnostics),
                       passed=passed, notes=_report_notes(index))


def check_model(model: Model, downgrade: Iterable[str] = ()) -> CheckReport:
    """:func:`prepare` the model, then :func:`run_rules`; raises what ``prepare`` raises."""
    return run_rules(prepare(model), downgrade)
