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

Both DSL readers split the text at ``"\n"`` only (not at the other line breaks
:meth:`str.splitlines` knows), and a ``//`` comment runs to the end of its
line. The statement reader goes first. It takes a text that holds one whole
statement per line, as above, with blank and comment lines between them: one
regular expression matches each line, and each record is built from its groups
with the span the token parser gives it. At the first line it cannot take, or
at a statement out of place, it declines, and the token parser reads the text
from the start. So every error, expected hint and span of a text that does not
parse comes from the token parser alone. Its scanner matches one regular
expression per line too; tokens are plain ``(kind, value, line, column)``
tuples, and the closing ``eof`` token sits just past the last line, or where a
comment on that line starts.
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
_PASSIVE = ClassKind.PASSIVE.value
_MULT_RE = re.compile(r"^x(\d+)$")


@dataclass(frozen=True, slots=True)
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


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(r"([ \t\r]*)(?:(" + _IDENT + r")|([{}():,;.])|//.*|([^ \t\r]))")


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


# The statement reader's pattern: one statement with blanks and a comment
# around it, or blanks and a comment alone. A marker group spans each kind of
# statement, so ``lastgroup`` names the kind. In the layout ``_`` stands for
# optional blanks, ``~`` for required ones, ``ID`` for an identifier and
# ``KIND`` for a class kind.
_STATEMENT_RE = re.compile(r"""
    _(?:(?P<part>part~(?P<pname>ID)_:_(?P<ptype>ID)(?:~x(?P<mult>[0-9]+))?_;)
    |(?P<port>port~(?P<oname>ID)_:_(?P<contract>ID)(?:~(?P<rev>reversed))?_;)
    |(?P<connector>connector~(?P<h1>ID)(?:_\._(?P<p1>ID))?_,_(?P<h2>ID)(?:_\._(?P<p2>ID))?
        (?:~via~(?P<via>ID))?_;)
    |(?P<names>(?P<verb>realizes|uses)~(?P<items>ID(?:_,_ID)*)_;)
    |(?P<close>\})
    |(?P<cls>class~(?P<cname>ID)(?:~(?P<kind>KIND))?(?:_:_(?P<general>ID))?_\{(?:_(?P<empty>\}))?)
    |(?P<iface>interface~(?P<iname>ID)(?:~(?P<group>group))?(?:_:_(?P<generals>ID(?:_,_ID)*))?
        _\{(?P<ops>(?:_op~ID_;)*)_\})
    |(?P<assoc>assoc~(?P<aname>ID)_\(_(?P<t1>ID)(?:~(?P<n1>nav))?_,_(?P<t2>ID)(?:~(?P<n2>nav))?
        _\)(?:_;)?)
    )?_(?://.*)?
    """.replace("_", r"[ \t\r]*").replace("~", r"[ \t\r]+").replace("KIND", "|".join(_KINDS))
    .replace("ID", _IDENT), re.VERBOSE)
_NAME_RE = re.compile(_IDENT)


def _read_statements(text: str, filename: str) -> Model | None:
    """The model of a text that holds one statement per line, as the token
    parser builds it; None (the reader declines) at the first line that holds
    anything else or a statement out of place, and at a class left open."""
    model = Model()
    cls = None
    fullmatch = _STATEMENT_RE.fullmatch
    names = _NAME_RE.findall
    for line_no, line in enumerate(text.split("\n"), 1):
        m = fullmatch(line)
        if m is None:
            return None
        kind = m.lastgroup
        if kind is None:
            continue
        if cls is not None:
            if kind == "connector":
                h1, p1, h2, p2 = m.group("h1", "p1", "h2", "p2")
                if (p1 is None and h1 == "self") or (p2 is None and h2 == "self"):
                    return None
                cls.connectors.append(Connector(
                    EndRef(None if h1 == "self" else h1, p1),
                    EndRef(None if h2 == "self" else h2, p2),
                    m.group("via"), SourceSpan(filename, line_no, m.start(kind) + 1)))
            elif kind == "port":
                name, contract, rev = m.group("oname", "contract", "rev")
                cls.ports.append(Port(name, contract, rev is not None,
                                      SourceSpan(filename, line_no, m.start("oname") + 1)))
            elif kind == "part":
                name, type_name, mult = m.group("pname", "ptype", "mult")
                try:
                    multiplicity = 1 if mult is None else int(mult)
                except ValueError:  # more digits than int() converts
                    return None
                cls.parts.append(Part(name, type_name, multiplicity,
                                      SourceSpan(filename, line_no, m.start("pname") + 1)))
            elif kind == "names":
                verb, items = m.group("verb", "items")
                (cls.realizes if verb == "realizes" else cls.usages).extend(names(items))
            elif kind == "close":
                cls = None
            else:  # a declaration inside a class
                return None
        elif kind == "cls":
            name, kind_name, general, empty = m.group("cname", "kind", "general", "empty")
            new = Class(name, _KINDS[kind_name] if kind_name else ClassKind.PASSIVE,
                        [] if general is None else [general], [], [], [], [], [], [],
                        SourceSpan(filename, line_no, m.start("cname") + 1))
            model.classes.append(new)
            if empty is None:
                cls = new
        elif kind == "iface":
            name, group, generals, ops = m.group("iname", "group", "generals", "ops")
            model.interfaces.append(Interface(
                name, [] if generals is None else names(generals), group is not None,
                names(ops)[1::2],  # the words of "op f; op g;" that follow each "op"
                SourceSpan(filename, line_no, m.start("iname") + 1)))
        elif kind == "assoc":
            name, t1, n1, t2, n2 = m.group("aname", "t1", "n1", "t2", "n2")
            model.associations.append(Association(
                name, AssociationEnd(t1, n1 is not None), AssociationEnd(t2, n2 is not None),
                False, SourceSpan(filename, line_no, m.start("aname") + 1)))
        else:  # a member or a '}' outside a class
            return None
    return model if cls is None else None


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
        pos += 1
        is_group = tokens[pos][1] == "group"
        pos += is_group
        generals: list[str] = []
        if tokens[pos][1] == ":":
            generals, pos = self.name_list(pos + 1, "interface name")
        if tokens[pos][1] != "{":
            self.expected(pos, "'{'")
        pos += 1
        operations: list[str] = []
        iface = Interface(name_tok[1], generals, is_group, operations, self.span(name_tok))
        while (value := tokens[pos][1]) != "}":
            if not value:
                self.fail(pos, "interface body is not closed", "'}'")
            try:
                if value != "op":
                    self.fail(pos, f"expected an operation, found {value!r}", "'op'")
                if tokens[pos + 1][0] != "ident":
                    self.expected(pos + 1, "operation name")
                operations.append(tokens[pos + 1][1])
                pos = self.end_statement(pos + 2)
            except _StatementError as exc:
                pos = self.sync_statement(exc.args[0])
        return iface, pos + 1

    def class_decl(self, pos: int) -> tuple[Class, int]:
        tokens = self.tokens
        name_tok = tokens[pos]
        if name_tok[0] != "ident":
            self.expected(pos, "class name")
        pos += 1
        kind = _KINDS.get(tokens[pos][1])
        if kind is None:
            kind = ClassKind.PASSIVE
        else:
            pos += 1
        generals: list[str] = []
        if tokens[pos][1] == ":":
            if tokens[pos + 1][0] != "ident":
                self.expected(pos + 1, "class name")
            generals.append(tokens[pos + 1][1])
            pos += 2
        if tokens[pos][1] != "{":
            self.expected(pos, "'{'")
        pos += 1
        cls = Class(name_tok[1], kind, generals, [], [], [], [], [], [], self.span(name_tok))
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
                cls.ports.append(Port(name_tok[1], type_name, is_reversed, self.span(name_tok)))
            else:
                match = _MULT_RE.match(nxt) if nxt_kind == "ident" else None
                multiplicity = 1
                if match:
                    try:
                        multiplicity = int(match.group(1))
                    except ValueError:  # more digits than int() converts
                        self.fail(pos, "multiplicity has too many digits")
                    pos += 1
                cls.parts.append(Part(name_tok[1], type_name, multiplicity, self.span(name_tok)))
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
            cls.connectors.append(Connector(end1, end2, association, self.span(conn_tok)))
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
            return EndRef(head, None), pos + 1
        if tokens[pos + 1][1] != ".":
            self.expected(pos + 1, "'.'")
        if tokens[pos + 2][0] != "ident":
            self.expected(pos + 2, "port name")
        return EndRef(None if head == "self" else head, tokens[pos + 2][1]), pos + 3

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
        return Association(name_tok[1], end1, end2, False, self.span(name_tok)), pos

    def assoc_end(self, pos: int) -> tuple[AssociationEnd, int]:
        tok = self.tokens[pos]
        if tok[0] != "ident":
            self.expected(pos, "classifier name")
        navigable = self.tokens[pos + 1][1] == "nav"
        return AssociationEnd(tok[1], navigable), pos + 1 + navigable


def parse_dsl(text: str, filename: str = "<dsl>") -> Model:
    """Parse DSL text into a model; raises :class:`ParseFailure` with every
    error found (recovery resumes at statement boundaries). The statement
    reader goes first; where it declines, the token parser reads the text
    from the start."""
    model = _read_statements(text, filename)
    if model is not None:
        return model
    tokens, lex_errors = _tokenize(text, filename)
    parser = _Parser(tokens, filename)
    model = parser.parse_model()
    errors = lex_errors + parser.errors
    if errors:
        errors.sort(key=lambda e: (e.span.line, e.span.column))
        raise ParseFailure(errors)
    return model


# JSON interchange -----------------------------------------------------------

# Each kind of JSON element has one schema table. A field is a key, a default
# (``_REQUIRED`` for none; ``()`` for an absent array, so that each record
# gets a list of its own), a type test and what to report when the test
# rejects a value: a message about the field's ``{key}`` at the element, or a
# function. A test returns what the record takes, or raises ``_Rejected``.
#
# Each kind also has a builder: straight-line code that makes every type test
# of its table, raises ``_Rejected`` at the first that fails and otherwise
# builds the record in one call, the record the table's tests would give.
# Only when a builder rejects is the table read: each rejected field is then
# reported in table order and nothing is built, since any error discards the
# model.

_REQUIRED = object()


class _Rejected(Exception):
    """Internal signal: a value fails its field's type test."""


def _or_empty(value) -> list:
    """An array field's value, ``[]`` for an absent field; anything else that
    is no array is rejected."""
    if type(value) is list:
        return value
    if value != ():
        raise _Rejected
    return []


def _build_interface(raw) -> Interface:
    if type(raw) is not dict:
        raise _Rejected
    get = raw.get
    name, group = get("name"), get("group", False)
    generals, operations = get("generals", ()), get("operations", ())
    if type(name) is not str or not name or type(group) is not bool:
        raise _Rejected
    if type(generals) is not list or type(operations) is not list:
        generals, operations = _or_empty(generals), _or_empty(operations)
    for item in generals:
        if type(item) is not str:
            raise _Rejected
    for item in operations:
        if type(item) is not str or not item:
            raise _Rejected
    return Interface(name, generals, group, operations)


def _build_attribute(raw) -> Attribute:
    if type(raw) is not dict:
        raise _Rejected
    name, type_name = raw.get("name"), raw.get("type")
    if type(name) is not str or not name or type(type_name) is not str:
        raise _Rejected
    return Attribute(name, type_name)


def _build_part(raw) -> Part:
    if type(raw) is not dict:
        raise _Rejected
    get = raw.get
    name, type_name, multiplicity = get("name"), get("type"), get("multiplicity", 1)
    if type(name) is not str or not name or type(type_name) is not str \
            or type(multiplicity) is not int:
        raise _Rejected
    return Part(name, type_name, multiplicity)


def _build_port(raw) -> Port:
    if type(raw) is not dict:
        raise _Rejected
    get = raw.get
    name, contract, is_reversed = get("name"), get("contract"), get("reversed", False)
    if type(name) is not str or not name or type(contract) is not str \
            or type(is_reversed) is not bool:
        raise _Rejected
    return Port(name, contract, is_reversed)


def _build_end_ref(raw) -> EndRef:
    if type(raw) is not dict:
        raise _Rejected
    part, port = raw.get("part"), raw.get("port")
    if (part is not None and type(part) is not str) or (port is not None and type(port) is not str):
        raise _Rejected
    return EndRef(part, port)


def _build_connector(raw) -> Connector:
    if type(raw) is not dict:
        raise _Rejected
    association = raw.get("association")
    if association is not None and type(association) is not str:
        raise _Rejected
    return Connector(_build_end_ref(raw.get("end1")), _build_end_ref(raw.get("end2")), association)


def _build_class(raw) -> Class:
    if type(raw) is not dict:
        raise _Rejected
    get = raw.get
    name, kind = get("name"), get("kind", _PASSIVE)
    if type(name) is not str or not name or type(kind) is not str or kind not in _KINDS:
        raise _Rejected
    arrays = generals, realizes, usages, attributes, parts, ports, connectors = (
        get("generals", ()), get("realizes", ()), get("uses", ()), get("attributes", ()),
        get("parts", ()), get("ports", ()), get("connectors", ()))
    if type(generals) is not list or type(realizes) is not list or type(usages) is not list \
            or type(attributes) is not list or type(parts) is not list \
            or type(ports) is not list or type(connectors) is not list:
        generals, realizes, usages, attributes, parts, ports, connectors = map(_or_empty, arrays)
    for item in (*generals, *realizes, *usages):
        if type(item) is not str:
            raise _Rejected
    return Class(name, _KINDS[kind], generals, realizes, usages,
                 [_build_attribute(item) for item in attributes],
                 [_build_part(item) for item in parts], [_build_port(item) for item in ports],
                 [_build_connector(item) for item in connectors])


def _build_association_end(raw) -> AssociationEnd:
    if type(raw) is not dict:
        raise _Rejected
    type_name, navigable = raw.get("type"), raw.get("navigable", False)
    if type(type_name) is not str or type(navigable) is not bool:
        raise _Rejected
    return AssociationEnd(type_name, navigable)


def _build_association(raw) -> Association:
    if type(raw) is not dict:
        raise _Rejected
    name = raw.get("name")
    if type(name) is not str or not name:
        raise _Rejected
    return Association(name, _build_association_end(raw.get("end1")),
                       _build_association_end(raw.get("end2")))


def _synthesized(raw) -> bool:
    """An association synthesis made, skipped unread: synthesis remakes it."""
    return type(raw) is dict and raw.get("synthesized") is True


def _build_model(raw) -> Model:
    if type(raw) is not dict:
        raise _Rejected
    get = raw.get
    interfaces, classes, associations = (get("interfaces", ()), get("classes", ()),
                                         get("associations", ()))
    root = get("root")
    if type(interfaces) is not list or type(classes) is not list \
            or type(associations) is not list:
        interfaces, classes, associations = map(_or_empty, (interfaces, classes, associations))
    if root is not None and (type(root) is not str or not root):
        raise _Rejected
    return Model([_build_interface(item) for item in interfaces],
                 [_build_class(item) for item in classes],
                 [_build_association(item) for item in associations if not _synthesized(item)],
                 root)


class _Table:
    """The schema of one kind of element, and ``build``, its builder."""

    __slots__ = ("build", "fields", "named")

    def __init__(self, build, *fields: tuple, named: bool = False):
        self.build = build
        self.fields = fields
        self.named = named  # a bad name stops the element: nothing else of it is checked


class _JsonReader:
    def __init__(self, filename: str):
        self.filename = filename
        self.errors: list[ParseError] = []

    def err(self, path: tuple, message: str) -> None:
        """Report ``message`` at an element path such as ``("classes", 0, "parts", 1)``,
        written out as ``$.classes[0].parts[1]`` only here."""
        where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
        self.errors.append(ParseError(SourceSpan(self.filename, 1, 1), f"${where}: {message}"))

    def report(self, table: _Table, raw, path: tuple) -> None:
        """Report each field of the element ``raw`` that ``table`` rejects."""
        if type(raw) is not dict:
            self.err(path, "must be an object")
            return
        for key, default, test, message in table.fields:
            value = raw.get(key, default)
            try:
                test(value)
            except _Rejected:
                if value is _REQUIRED:
                    self.err(path, f"missing required field '{key}'")
                elif type(message) is str:
                    self.err(path, message.format(key=key))
                else:
                    message(self, path, key, value)
                if key == "name" and table.named:
                    return


class _LongInteger:
    """A JSON integer literal with more digits than ``int()`` converts."""

    def __repr__(self) -> str:
        return "<integer with too many digits>"


def _json_int(digits: str) -> int | _LongInteger:
    try:
        return int(digits)
    except ValueError:
        return _LongInteger()


def _of_type(kind: type):
    """The test of values of exactly ``kind``: a boolean is no integer here."""
    def test(value):
        if type(value) is kind:
            return value
        raise _Rejected
    return test


_string, _boolean, _integer = _of_type(str), _of_type(bool), _of_type(int)


def _optional_string(value) -> str | None:
    if value is None or type(value) is str:
        return value
    raise _Rejected


def _name(value) -> str:
    if type(value) is str and value:
        return value
    raise _Rejected


def _optional_name(value) -> str | None:
    return None if value is None else _name(value)


def _kind(value) -> ClassKind:
    if type(value) is str and value in _KINDS:
        return _KINDS[value]
    raise _Rejected


def _says_of_end(message: str):
    """The report of ``message``, given the end's key and the field's, at the
    element that holds the end."""
    return lambda reader, path, key, value: \
        reader.err(path[:-1], message.format(key=f"{path[-1]}.{key}"))


def _report_name(reader: _JsonReader, path: tuple, key: str, value) -> None:
    reader.err(path, f"field '{key}' must not be empty" if value == ""
               else f"field '{key}' must be a string")


def _report_kind(reader: _JsonReader, path: tuple, key: str, value) -> None:
    reader.err(path, f"unknown class kind {value!r}" if type(value) is str
               else f"field '{key}' must be a string")


def _report_integer(reader: _JsonReader, path: tuple, key: str, value) -> None:
    reader.err(path, f"field '{key}' has too many digits" if type(value) is _LongInteger
               else f"field '{key}' must be an integer")


def _end(table: _Table) -> tuple:
    """The test and report of a field that holds one element of ``table``."""

    def report(reader: _JsonReader, path: tuple, key: str, value) -> None:
        if type(value) is dict:
            reader.report(table, value, (*path, key))
        else:
            reader.err(path, f"field '{key}' must be an object")

    return table.build, report


def _array(test, report, skip=None) -> tuple:
    """The test and report of a field that holds an array of items that pass
    ``test``, less those ``skip`` holds for; ``report`` tells of an item that
    does not pass."""

    def array_test(value) -> list:
        if type(value) is not list:
            if value == ():
                return []
            raise _Rejected
        if skip is not None:
            return [test(item) for item in value if not skip(item)]
        return [test(item) for item in value] if value else value

    def array_report(reader: _JsonReader, path: tuple, key: str, value) -> None:
        if type(value) is not list:
            reader.err(path, f"field '{key}' must be an array")
            return
        for i, item in enumerate(value):
            if skip is None or not skip(item):
                try:
                    test(item)
                except _Rejected:
                    report(reader, (*path, key, i), item)

    return array_test, array_report


def _elements(table: _Table, skip=None) -> tuple:
    """The test and report of a field that holds an array of elements of ``table``."""
    return _array(table.build, lambda reader, path, raw: reader.report(table, raw, path), skip)


_NAME = ("name", _REQUIRED, _name, _report_name)
_STRINGS = ((), *_array(_string, lambda reader, path, item: reader.err(path, "must be a string")))
_NAMES = ((), *_array(_name, lambda reader, path, item: reader.err(
    path, "must not be empty" if item == "" else "must be a string")))
_MUST_BE_A_STRING = "field '{key}' must be a string"
_MUST_BE_A_BOOLEAN = "field '{key}' must be a boolean"

_INTERFACE = _Table(
    _build_interface, _NAME, ("group", False, _boolean, _MUST_BE_A_BOOLEAN),
    ("generals", *_STRINGS), ("operations", *_NAMES), named=True)
_ATTRIBUTE = _Table(_build_attribute, _NAME, ("type", _REQUIRED, _string, _MUST_BE_A_STRING))
_PART = _Table(_build_part, _NAME, ("type", _REQUIRED, _string, _MUST_BE_A_STRING),
               ("multiplicity", 1, _integer, _report_integer))
_PORT = _Table(_build_port, _NAME, ("contract", _REQUIRED, _string, _MUST_BE_A_STRING),
               ("reversed", False, _boolean, _MUST_BE_A_BOOLEAN))
_END_REF = _Table(_build_end_ref, *[(key, None, _optional_string,
                                     _says_of_end("'{key}' must be a string"))
                                    for key in ("part", "port")])
_CONNECTOR = _Table(_build_connector, ("end1", None, *_end(_END_REF)),
                    ("end2", None, *_end(_END_REF)),
                    ("association", None, _optional_string, "'{key}' must be a string"))
_CLASS = _Table(
    _build_class, _NAME, ("kind", _PASSIVE, _kind, _report_kind),
    ("generals", *_STRINGS), ("realizes", *_STRINGS), ("uses", *_STRINGS),
    ("attributes", (), *_elements(_ATTRIBUTE)), ("parts", (), *_elements(_PART)),
    ("ports", (), *_elements(_PORT)), ("connectors", (), *_elements(_CONNECTOR)), named=True)
_ASSOCIATION_END = _Table(
    _build_association_end, ("type", _REQUIRED, _string, _MUST_BE_A_STRING),
    ("navigable", False, _boolean, _says_of_end("'{key}' must be a boolean")))
_ASSOCIATION = _Table(_build_association, _NAME, ("end1", None, *_end(_ASSOCIATION_END)),
                      ("end2", None, *_end(_ASSOCIATION_END)), named=True)
_MODEL = _Table(
    _build_model, ("interfaces", (), *_elements(_INTERFACE)), ("classes", (), *_elements(_CLASS)),
    ("associations", (), *_elements(_ASSOCIATION, skip=_synthesized)),
    ("root", None, _optional_name, _report_name))


def parse_json(text: str, filename: str = "<json>") -> Model:
    """Parse the canonical JSON format; raises :class:`ParseFailure` on
    malformed JSON or schema violations. Synthesized associations present in
    the input are skipped (re-synthesis recreates them)."""
    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseFailure([ParseError(SourceSpan(filename, exc.lineno, exc.colno),
                                       f"malformed JSON: {exc.msg}")]) from exc
    except RecursionError as exc:
        raise ParseFailure([ParseError(SourceSpan(filename, 1, 1),
                                       "malformed JSON: nesting is too deep")]) from exc
    if not isinstance(data, dict):
        raise ParseFailure([ParseError(SourceSpan(filename, 1, 1),
                                       "top level must be an object")])
    reader = _JsonReader(filename)
    version = data.get("formatVersion", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
        reader.err((), f"unsupported formatVersion {version!r} (expected {FORMAT_VERSION})")
    try:
        model = _MODEL.build(data)
    except _Rejected:
        reader.report(_MODEL, data, ())
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
