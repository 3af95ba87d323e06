"""compocheck: validation and routing simulation for hierarchical component models.

The package checks composite structures (classes with parts, contract ports
and connectors) against a fixed rule set (W000-W011), derives the typing of
every connector (link kind, origin, transported interface set), and executes
the default port-forwarding semantics over an instantiated structure to verify
that every request reaches a receiver providing its interface.
"""

__version__ = "0.1.0"

from .diagnostics import Diagnostic, Severity, SourceSpan
from .ingest import ParseError, ParseFailure, parse_dsl, parse_json, serialize_json
from .model import (
    Association,
    AssociationEnd,
    Attribute,
    Class,
    ClassKind,
    Connector,
    DelegConflictError,
    EndRef,
    IntegrityError,
    Interface,
    Model,
    ModelError,
    Part,
    Port,
    UnknownPathError,
    deleg_name,
    resolve,
    synthesize_deleg_associations,
    validate_integrity,
    without_synthesized,
)
from .rules import CheckReport, check_model
from .simulator import (
    DelegBinding,
    InstanceGraph,
    Request,
    RequestStatus,
    SafetyReport,
    SimError,
    Trace,
    TraceEvent,
    check_type_safety,
    default_injection_suite,
    inject,
    instantiate,
    run_to_quiescence,
    step,
)
from .type_system import LinkKind, TypingIndex, parents_of

__all__ = [
    "__version__",
    "Association", "AssociationEnd", "Attribute", "Class", "ClassKind", "Connector",
    "Diagnostic", "Severity", "SourceSpan", "EndRef", "Interface", "Model", "Part", "Port",
    "ModelError", "IntegrityError", "DelegConflictError", "UnknownPathError",
    "ParseError", "ParseFailure", "parse_dsl", "parse_json", "serialize_json",
    "deleg_name", "resolve", "synthesize_deleg_associations", "validate_integrity",
    "without_synthesized",
    "CheckReport", "check_model",
    "LinkKind", "TypingIndex", "parents_of",
    "DelegBinding", "InstanceGraph", "Request", "RequestStatus", "SafetyReport", "SimError", "Trace",
    "TraceEvent", "check_type_safety", "default_injection_suite", "inject", "instantiate",
    "run_to_quiescence", "step",
]
