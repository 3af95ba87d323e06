"""Parsing and serialization of component models.

Two surfaces feed the same :class:`~compocheck.model.Model`:

* a small textual DSL (``.csm`` files), one statement per model element::

      interface I { op ping; }
      interface IJ group : I, J {}
      class Worker active : Base {
        realizes I;
        uses J;
        part sub: Helper x2;
        port pIn: I;
        port rOut: J reversed;
        connector self.pIn , sub;
        connector sub , self.rOut via itsJ;
      }
      assoc itsJ ( Worker , J nav );

* a canonical JSON format (``.csm.json``), produced by :func:`serialize_json`
  with stable field ordering so equal models serialize to identical bytes.

Both parsers collect as many errors as they can and raise
:class:`ParseFailure` carrying the list.

The DSL is scanned in one pass: the text is split at ``"\n"`` only (not at the
other line breaks :meth:`str.splitlines` knows) and one regular expression
matches each line. Tokens are plain ``(kind, value, line, column)`` tuples. A
``//`` comment runs to the end of its line, and the closing ``eof`` token sits
just past the last line, or where a comment on that line starts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .diagnostics import SourceSpan
from .model import (
    Association,
    AssociationEnd,
    Attribute,
    Class,
    ClassKind,
    Connector,
    EndRef,
    Interface,
    Model,
    Part,
    Port,
)

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in ClassKind}
_MULT_RE = re.compile(r"^x(\d+)$")


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str
    expected: str | None = None

    def render(self) -> str:
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"{self.span}: {self.message}{hint}"


class ParseFailure(Exception):
    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("; ".join(e.render() for e in errors))


_TOKEN_RE = re.compile(r"([ \t\r]*)(?:([A-Za-z_][A-Za-z0-9_]*)|([{}():,;.])|//.*|([^ \t\r]))")


def _tokenize(text: str, filename: str) -> tuple[list[tuple], list[ParseError]]:
    """The tokens ``(kind, value, line, column)`` of a DSL text, ending with
    ``eof``, and an error per unexpected character."""
    tokens: list[tuple] = []
    errors: list[ParseError] = []
    append = tokens.append
    findall = _TOKEN_RE.findall
    lines = text.split("\n")
    for line_no, line in enumerate(lines, 1):
        column = 1
        for space, word, punct, other in findall(line):
            if space:
                column += len(space)
            if word:
                append(("ident", word, line_no, column))
                column += len(word)
            elif punct:
                append(("punct", punct, line_no, column))
                column += 1
            elif other:
                errors.append(ParseError(SourceSpan(filename, line_no, column),
                                         f"unexpected character {other!r}"))
                column += 1
    last = lines[-1]
    comment = last.find("//")
    append(("eof", "", len(lines), (comment if comment >= 0 else len(last)) + 1))
    return tokens, errors


class _StatementError(Exception):
    """Internal signal: abandon the current statement and resynchronize at the
    token position it carries."""


class _Parser:
    """Recursive descent over the token list. Each production takes the
    position of its first token and returns what it built with the position
    after its last; it reads the token tuples itself. A token's value alone
    tells a keyword or punctuation mark apart, since no identifier is a
    punctuation mark and ``eof`` has an empty value."""

    def __init__(self, tokens: list[tuple], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.errors: list[ParseError] = []

    def span(self, tok: tuple) -> SourceSpan:
        return SourceSpan(self.filename, tok[2], tok[3])

    def fail(self, pos: int, message: str, expected: str | None = None) -> None:
        self.errors.append(ParseError(self.span(self.tokens[pos]), message, expected))
        raise _StatementError(pos)

    def expected(self, pos: int, what: str) -> None:
        shown = self.tokens[pos][1] or "end of input"
        self.fail(pos, f"expected {what}, found {shown!r}", what)

    def end_statement(self, pos: int) -> int:
        """Statements close with ';'; the one before '}' may omit it."""
        value = self.tokens[pos][1]
        if value == ";":
            return pos + 1
        if value != "}":
            self.fail(pos, "statement is not terminated", "';'")
        return pos

    def sync_statement(self, pos: int) -> int:
        tokens = self.tokens
        while True:
            kind, value = tokens[pos][:2]
            if kind == "eof" or value == "}":
                return pos
            if value == ";":
                return pos + 1
            pos += 1

    def sync_toplevel(self, pos: int) -> int:
        tokens = self.tokens
        depth = 0
        while True:
            kind, value = tokens[pos][:2]
            if kind == "eof" or (depth == 0 and value in ("interface", "class", "assoc")):
                return pos
            if value == "{":
                depth += 1
            elif value == "}":
                depth = max(0, depth - 1)
                if depth == 0:
                    return pos + 1
            pos += 1

    def name_list(self, pos: int, what: str) -> tuple[list[str], int]:
        tokens = self.tokens
        names = []
        while True:
            if tokens[pos][0] != "ident":
                self.expected(pos, what)
            names.append(tokens[pos][1])
            if tokens[pos + 1][1] != ",":
                return names, pos + 1
            pos += 2

    # Top-level declarations -------------------------------------------------

    def parse_model(self) -> Model:
        tokens = self.tokens
        model = Model()
        pos = 0
        while True:
            kind, value = tokens[pos][:2]
            if kind == "eof":
                return model
            try:
                if value == "interface":
                    iface, pos = self.interface_decl(pos + 1)
                    model.interfaces.append(iface)
                elif value == "class":
                    cls, pos = self.class_decl(pos + 1)
                    model.classes.append(cls)
                elif value == "assoc":
                    assoc, pos = self.assoc_decl(pos + 1)
                    model.associations.append(assoc)
                elif value == ";":
                    pos += 1
                else:
                    self.fail(pos, f"expected a declaration, found {value!r}",
                              "'interface', 'class' or 'assoc'")
            except _StatementError as exc:
                pos = self.sync_toplevel(exc.args[0])

    def interface_decl(self, pos: int) -> tuple[Interface, int]:
        tokens = self.tokens
        name_tok = tokens[pos]
        if name_tok[0] != "ident":
            self.expected(pos, "interface name")
        iface = Interface(name=name_tok[1], span=self.span(name_tok))
        pos += 1
        if tokens[pos][1] == "group":
            iface.is_group = True
            pos += 1
        if tokens[pos][1] == ":":
            iface.generals, pos = self.name_list(pos + 1, "interface name")
        if tokens[pos][1] != "{":
            self.expected(pos, "'{'")
        pos += 1
        while (value := tokens[pos][1]) != "}":
            if not value:
                self.fail(pos, "interface body is not closed", "'}'")
            try:
                if value != "op":
                    self.fail(pos, f"expected an operation, found {value!r}", "'op'")
                if tokens[pos + 1][0] != "ident":
                    self.expected(pos + 1, "operation name")
                iface.operations.append(tokens[pos + 1][1])
                pos = self.end_statement(pos + 2)
            except _StatementError as exc:
                pos = self.sync_statement(exc.args[0])
        return iface, pos + 1

    def class_decl(self, pos: int) -> tuple[Class, int]:
        tokens = self.tokens
        name_tok = tokens[pos]
        if name_tok[0] != "ident":
            self.expected(pos, "class name")
        cls = Class(name=name_tok[1], span=self.span(name_tok))
        pos += 1
        kind = _KINDS.get(tokens[pos][1])
        if kind is not None:
            cls.kind = kind
            pos += 1
        if tokens[pos][1] == ":":
            if tokens[pos + 1][0] != "ident":
                self.expected(pos + 1, "class name")
            cls.generals = [tokens[pos + 1][1]]
            pos += 2
        if tokens[pos][1] != "{":
            self.expected(pos, "'{'")
        pos += 1
        while (value := tokens[pos][1]) != "}":
            if not value:
                self.fail(pos, "class body is not closed", "'}'")
            try:
                pos = self.class_member(cls, pos)
            except _StatementError as exc:
                pos = self.sync_statement(exc.args[0])
        return cls, pos + 1

    def class_member(self, cls: Class, pos: int) -> int:
        tokens = self.tokens
        keyword = tokens[pos][1]
        if keyword == "part" or keyword == "port":
            name_tok = tokens[pos + 1]
            if name_tok[0] != "ident":
                self.expected(pos + 1, f"{keyword} name")
            if tokens[pos + 2][1] != ":":
                self.expected(pos + 2, "':'")
            if tokens[pos + 3][0] != "ident":
                self.expected(pos + 3, "type name" if keyword == "part" else "interface name")
            type_name = tokens[pos + 3][1]
            pos += 4
            nxt_kind, nxt = tokens[pos][:2]
            if keyword == "port":
                is_reversed = nxt == "reversed"
                pos += is_reversed
                cls.ports.append(Port(name=name_tok[1], contract=type_name,
                                      reversed=is_reversed, span=self.span(name_tok)))
            else:
                match = _MULT_RE.match(nxt) if nxt_kind == "ident" else None
                multiplicity = 1
                if match:
                    try:
                        multiplicity = int(match.group(1))
                    except ValueError:  # more digits than int() converts
                        self.fail(pos, "multiplicity has too many digits")
                    pos += 1
                cls.parts.append(Part(name=name_tok[1], type=type_name,
                                      multiplicity=multiplicity, span=self.span(name_tok)))
        elif keyword == "connector":
            conn_tok = tokens[pos]
            end1, pos = self.connector_end(pos + 1)
            if tokens[pos][1] != ",":
                self.expected(pos, "','")
            end2, pos = self.connector_end(pos + 1)
            association = None
            if tokens[pos][1] == "via":
                if tokens[pos + 1][0] != "ident":
                    self.expected(pos + 1, "association name")
                association = tokens[pos + 1][1]
                pos += 2
            cls.connectors.append(Connector(end1=end1, end2=end2, association=association,
                                            span=self.span(conn_tok)))
        elif keyword == "realizes" or keyword == "uses":
            names, pos = self.name_list(pos + 1, "interface name")
            (cls.realizes if keyword == "realizes" else cls.usages).extend(names)
        else:
            self.fail(pos, f"expected a class member, found {keyword!r}",
                      "'realizes', 'uses', 'part', 'port' or 'connector'")
        return self.end_statement(pos)

    def connector_end(self, pos: int) -> tuple[EndRef, int]:
        tokens = self.tokens
        head = tokens[pos][1]
        if tokens[pos][0] != "ident":
            self.expected(pos, "part name, or 'self'")
        if head != "self" and tokens[pos + 1][1] != ".":
            return EndRef(part=head, port=None), pos + 1
        if tokens[pos + 1][1] != ".":
            self.expected(pos + 1, "'.'")
        if tokens[pos + 2][0] != "ident":
            self.expected(pos + 2, "port name")
        return EndRef(part=None if head == "self" else head, port=tokens[pos + 2][1]), pos + 3

    def assoc_decl(self, pos: int) -> tuple[Association, int]:
        tokens = self.tokens
        name_tok = tokens[pos]
        if name_tok[0] != "ident":
            self.expected(pos, "association name")
        if tokens[pos + 1][1] != "(":
            self.expected(pos + 1, "'('")
        end1, pos = self.assoc_end(pos + 2)
        if tokens[pos][1] != ",":
            self.expected(pos, "','")
        end2, pos = self.assoc_end(pos + 1)
        if tokens[pos][1] != ")":
            self.expected(pos, "')'")
        pos += 1
        if tokens[pos][1] == ";":
            pos += 1
        return Association(name=name_tok[1], end1=end1, end2=end2,
                           span=self.span(name_tok)), pos

    def assoc_end(self, pos: int) -> tuple[AssociationEnd, int]:
        tok = self.tokens[pos]
        if tok[0] != "ident":
            self.expected(pos, "classifier name")
        navigable = self.tokens[pos + 1][1] == "nav"
        return AssociationEnd(type=tok[1], navigable=navigable), pos + 1 + navigable


def parse_dsl(text: str, filename: str = "<dsl>") -> Model:
    """Parse DSL text into a model; raises :class:`ParseFailure` with every
    error found (recovery resumes at statement boundaries)."""
    tokens, lex_errors = _tokenize(text, filename)
    parser = _Parser(tokens, filename)
    model = parser.parse_model()
    errors = lex_errors + parser.errors
    if errors:
        errors.sort(key=lambda e: (e.span.line, e.span.column))
        raise ParseFailure(errors)
    return model


# JSON interchange -----------------------------------------------------------


class _JsonReader:
    def __init__(self, filename: str):
        self.filename = filename
        self.errors: list[ParseError] = []

    def err(self, path: tuple, message: str) -> None:
        """Report ``message`` at an element path such as ``("classes", 0, "parts", 1)``,
        written out as ``$.classes[0].parts[1]`` only here."""
        where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
        self.errors.append(ParseError(SourceSpan(self.filename, 1, 1), f"${where}: {message}"))

    def str_field(self, obj: dict, key: str, path: tuple, default: str | None = None) -> str | None:
        value = obj.get(key, default)
        if value is default:
            if default is None and key not in obj:
                self.err(path, f"missing required field '{key}'")
            return default
        if not isinstance(value, str):
            self.err(path, f"field '{key}' must be a string")
            return default
        return value

    def list_field(self, obj: dict, key: str, path: tuple) -> list:
        value = obj.get(key, [])
        if not isinstance(value, list):
            self.err(path, f"field '{key}' must be an array")
            return []
        return value

    def str_list(self, obj: dict, key: str, path: tuple) -> list[str]:
        out = []
        for i, item in enumerate(self.list_field(obj, key, path)):
            if isinstance(item, str):
                out.append(item)
            else:
                self.err((*path, key, i), "must be a string")
        return out


class _LongInteger:
    """A JSON integer literal with more digits than ``int()`` converts."""

    def __repr__(self) -> str:
        return "<integer with too many digits>"


def _json_int(digits: str) -> int | _LongInteger:
    try:
        return int(digits)
    except ValueError:
        return _LongInteger()


def parse_json(text: str, filename: str = "<json>") -> Model:
    """Parse the canonical JSON format; raises :class:`ParseFailure` on
    malformed JSON or schema violations. Synthesized associations present in
    the input are skipped (re-synthesis recreates them)."""
    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseFailure([ParseError(SourceSpan(filename, exc.lineno, exc.colno),
                                       f"malformed JSON: {exc.msg}")]) from exc
    reader = _JsonReader(filename)
    if not isinstance(data, dict):
        raise ParseFailure([ParseError(SourceSpan(filename, 1, 1),
                                       "top level must be an object")])
    version = data.get("formatVersion", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        reader.err((), f"unsupported formatVersion {version!r} (expected {FORMAT_VERSION})")
    model = Model()
    for i, raw in enumerate(reader.list_field(data, "interfaces", ())):
        path = ("interfaces", i)
        if not isinstance(raw, dict):
            reader.err(path, "must be an object")
            continue
        name = reader.str_field(raw, "name", path)
        if name is None:
            continue
        group = raw.get("group", False)
        if not isinstance(group, bool):
            reader.err(path, "field 'group' must be a boolean")
            group = False
        model.interfaces.append(Interface(
            name=name,
            generals=reader.str_list(raw, "generals", path),
            is_group=group,
            operations=reader.str_list(raw, "operations", path),
        ))
    for i, raw in enumerate(reader.list_field(data, "classes", ())):
        path = ("classes", i)
        if not isinstance(raw, dict):
            reader.err(path, "must be an object")
            continue
        name = reader.str_field(raw, "name", path)
        if name is None:
            continue
        kind_text = reader.str_field(raw, "kind", path, ClassKind.PASSIVE.value)
        if kind_text not in _KINDS:
            reader.err(path, f"unknown class kind {kind_text!r}")
            kind_text = ClassKind.PASSIVE.value
        cls = Class(name=name, kind=_KINDS[kind_text],
                    generals=reader.str_list(raw, "generals", path),
                    realizes=reader.str_list(raw, "realizes", path),
                    usages=reader.str_list(raw, "uses", path))
        for j, attr in enumerate(reader.list_field(raw, "attributes", path)):
            apath = ("classes", i, "attributes", j)
            if not isinstance(attr, dict):
                reader.err(apath, "must be an object")
                continue
            aname = reader.str_field(attr, "name", apath)
            atype = reader.str_field(attr, "type", apath)
            if aname is not None and atype is not None:
                cls.attributes.append(Attribute(aname, atype))
        for j, part in enumerate(reader.list_field(raw, "parts", path)):
            ppath = ("classes", i, "parts", j)
            if not isinstance(part, dict):
                reader.err(ppath, "must be an object")
                continue
            pname = reader.str_field(part, "name", ppath)
            ptype = reader.str_field(part, "type", ppath)
            mult = part.get("multiplicity", 1)
            if isinstance(mult, _LongInteger):
                reader.err(ppath, "field 'multiplicity' has too many digits")
                mult = 1
            elif not isinstance(mult, int) or isinstance(mult, bool):
                reader.err(ppath, "field 'multiplicity' must be an integer")
                mult = 1
            if pname is not None and ptype is not None:
                cls.parts.append(Part(name=pname, type=ptype, multiplicity=mult))
        for j, port in enumerate(reader.list_field(raw, "ports", path)):
            ppath = ("classes", i, "ports", j)
            if not isinstance(port, dict):
                reader.err(ppath, "must be an object")
                continue
            pname = reader.str_field(port, "name", ppath)
            contract = reader.str_field(port, "contract", ppath)
            rev = port.get("reversed", False)
            if not isinstance(rev, bool):
                reader.err(ppath, "field 'reversed' must be a boolean")
                rev = False
            if pname is not None and contract is not None:
                cls.ports.append(Port(name=pname, contract=contract, reversed=rev))
        for j, conn in enumerate(reader.list_field(raw, "connectors", path)):
            cpath = ("classes", i, "connectors", j)
            if not isinstance(conn, dict):
                reader.err(cpath, "must be an object")
                continue
            ends = []
            for key in ("end1", "end2"):
                raw_end = conn.get(key)
                if not isinstance(raw_end, dict):
                    reader.err(cpath, f"field '{key}' must be an object")
                    raw_end = {}
                part_name = raw_end.get("part")
                port_name = raw_end.get("port")
                if part_name is not None and not isinstance(part_name, str):
                    reader.err(cpath, f"'{key}.part' must be a string")
                    part_name = None
                if port_name is not None and not isinstance(port_name, str):
                    reader.err(cpath, f"'{key}.port' must be a string")
                    port_name = None
                ends.append(EndRef(part=part_name, port=port_name))
            association = conn.get("association")
            if association is not None and not isinstance(association, str):
                reader.err(cpath, "'association' must be a string")
                association = None
            cls.connectors.append(Connector(end1=ends[0], end2=ends[1], association=association))
        model.classes.append(cls)
    for i, raw in enumerate(reader.list_field(data, "associations", ())):
        path = ("associations", i)
        if not isinstance(raw, dict):
            reader.err(path, "must be an object")
            continue
        if raw.get("synthesized") is True:
            continue
        name = reader.str_field(raw, "name", path)
        if name is None:
            continue
        ends = []
        for key in ("end1", "end2"):
            raw_end = raw.get(key)
            if not isinstance(raw_end, dict):
                reader.err(path, f"field '{key}' must be an object")
                raw_end = {"type": "?"}
            etype = reader.str_field(raw_end, "type", (*path, key))
            nav = raw_end.get("navigable", False)
            if not isinstance(nav, bool):
                reader.err(path, f"'{key}.navigable' must be a boolean")
                nav = False
            ends.append(AssociationEnd(type=etype if etype is not None else "?", navigable=nav))
        model.associations.append(Association(name=name, end1=ends[0], end2=ends[1]))
    root = data.get("root")
    if root is not None:
        if isinstance(root, str):
            model.root = root
        else:
            reader.err((), "field 'root' must be a string")
    if reader.errors:
        raise ParseFailure(reader.errors)
    return model


def model_to_dict(model: Model) -> dict:
    """The canonical JSON object form of a model (fixed key order)."""
    doc: dict = {"formatVersion": FORMAT_VERSION}
    doc["interfaces"] = [
        {
            "name": i.name,
            "group": i.is_group,
            "generals": list(i.generals),
            "operations": list(i.operations),
        }
        for i in model.interfaces
    ]
    classes = []
    for cls in model.classes:
        entry: dict = {
            "name": cls.name,
            "kind": cls.kind.value,
            "generals": list(cls.generals),
            "realizes": list(cls.realizes),
            "uses": list(cls.usages),
            "attributes": [{"name": a.name, "type": a.type} for a in cls.attributes],
            "parts": [{"name": p.name, "type": p.type, "multiplicity": p.multiplicity}
                      for p in cls.parts],
            "ports": [{"name": p.name, "contract": p.contract, "reversed": p.reversed}
                      for p in cls.ports],
        }
        connectors = []
        for conn in cls.connectors:
            centry: dict = {}
            for key, ref in (("end1", conn.end1), ("end2", conn.end2)):
                end: dict = {}
                if ref.part is not None:
                    end["part"] = ref.part
                if ref.port is not None:
                    end["port"] = ref.port
                centry[key] = end
            if conn.association is not None:
                centry["association"] = conn.association
            connectors.append(centry)
        entry["connectors"] = connectors
        classes.append(entry)
    doc["classes"] = classes
    associations = []
    for assoc in model.associations:
        aentry: dict = {
            "name": assoc.name,
            "end1": {"type": assoc.end1.type, "navigable": assoc.end1.navigable},
            "end2": {"type": assoc.end2.type, "navigable": assoc.end2.navigable},
        }
        if assoc.is_deleg_default:
            aentry["synthesized"] = True
        associations.append(aentry)
    doc["associations"] = associations
    if model.root is not None:
        doc["root"] = model.root
    return doc


def serialize_json(model: Model) -> str:
    """Serialize to the canonical JSON format: same model, same bytes."""
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def detect_format(filename: str) -> str:
    return "json" if filename.endswith(".json") else "dsl"


def parse_auto(text: str, filename: str, fmt: str = "auto") -> Model:
    if fmt == "auto":
        fmt = detect_format(filename)
    if fmt == "json":
        return parse_json(text, filename)
    return parse_dsl(text, filename)
