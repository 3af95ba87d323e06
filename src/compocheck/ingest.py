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
at a statement out of place, it declines. The token parser then reads on from
that line, adding to the declarations the statement reader built before it:
inside a class, it first reads the rest of that class's body. So every error,
expected hint and span of a text that does not parse comes from the token
parser alone. Its scanner matches one regular expression per line too; tokens
are plain ``(kind, value, line, column)`` tuples, and the closing ``eof``
token sits just past the last line, or where a comment on that line starts.

Each kind of JSON element has one schema table. Its builder is derived from
the table when the module loads, and the writer walks the same tables, so the
keys, their order, their defaults and the fields left out are stated once.
"""

from __future__ import annotations

import json
import re
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
from .records import record

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in ClassKind}
_PASSIVE = ClassKind.PASSIVE.value
_MULT_RE = re.compile(r"^x(\d+)$")


@record(frozen=True)
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


def _tokenize(text: str, filename: str, first_line: int) -> tuple[list[tuple], list[ParseError]]:
    """The tokens ``(kind, value, line, column)`` of a DSL text from its line
    ``first_line`` on, ending with ``eof``, and an error per unexpected
    character there."""
    tokens: list[tuple] = []
    errors: list[ParseError] = []
    append = tokens.append
    findall = _TOKEN_RE.findall
    lines = text.split("\n")
    for line_no, line in enumerate(lines[first_line - 1:], first_line):
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


def _read_statements(text: str, filename: str) -> tuple[Model, int | None, Class | None]:
    """The model of a text that holds one statement per line, as the token
    parser builds it, and None twice. Where the reader declines, at the first
    line that holds anything else or a statement out of place, the model read
    so far, that line and the class open at it, if any; a class left open at
    the end of the text is declined at the line past the last."""
    model = Model()
    cls = None
    fullmatch = _STATEMENT_RE.fullmatch
    names = _NAME_RE.findall
    for line_no, line in enumerate(text.split("\n"), 1):
        m = fullmatch(line)
        if m is None:
            break
        kind = m.lastgroup
        if kind is None:
            continue
        if cls is not None:
            if kind == "connector":
                h1, p1, h2, p2 = m.group("h1", "p1", "h2", "p2")
                if (p1 is None and h1 == "self") or (p2 is None and h2 == "self"):
                    break
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
                    break
                cls.parts.append(Part(name, type_name, multiplicity,
                                      SourceSpan(filename, line_no, m.start("pname") + 1)))
            elif kind == "names":
                verb, items = m.group("verb", "items")
                (cls.realizes if verb == "realizes" else cls.usages).extend(names(items))
            elif kind == "close":
                cls = None
            else:  # a declaration inside a class
                break
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
            break
    else:  # every line taken
        if cls is None:
            return model, None, None
        line_no += 1
    return model, line_no, cls


class _StatementError(Exception):
    """Internal signal: abandon the current statement; recovery starts at the
    token the parser stopped at."""


class _Parser:
    """Recursive descent over the token list through a cursor, ``pos``, the
    index of the next token. A token's value alone tells a keyword or
    punctuation mark apart, since no identifier is a punctuation mark and
    ``eof`` has an empty value."""

    def __init__(self, tokens: list[tuple], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.errors: list[ParseError] = []

    def peek(self) -> str:
        """The value of the next token."""
        return self.tokens[self.pos][1]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Read the next token if its value is ``value``."""
        if self.tokens[self.pos][1] != value:
            return False
        self.pos += 1
        return True

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.expected(f"'{value}'")

    def ident(self, what: str) -> tuple:
        """Read the next token, an identifier: ``what`` the grammar wants there."""
        if self.tokens[self.pos][0] != "ident":
            self.expected(what)
        return self.advance()

    def span(self, tok: tuple) -> SourceSpan:
        return SourceSpan(self.filename, tok[2], tok[3])

    def fail(self, message: str, expected: str | None = None) -> None:
        """Report ``message`` at the next token and abandon the statement."""
        self.errors.append(ParseError(self.span(self.tokens[self.pos]), message, expected))
        raise _StatementError

    def expected(self, what: str) -> None:
        self.fail(f"expected {what}, found {self.peek() or 'end of input'!r}", what)

    def end_statement(self) -> None:
        """Statements close with ';'; the one before '}' may omit it."""
        if not self.accept(";") and self.peek() != "}":
            self.fail("statement is not terminated", "';'")

    def sync_statement(self) -> None:
        """Skip past the next ';', or to a '}' or the end."""
        while (value := self.peek()) and value != "}":
            self.pos += 1
            if value == ";":
                return

    def sync_toplevel(self) -> None:
        """Skip past the '}' that closes the open body, or to a declaration
        keyword outside any body, or to the end."""
        depth = 0
        while (value := self.peek()) and (depth or value not in ("interface", "class", "assoc")):
            self.pos += 1
            if value == "{":
                depth += 1
            elif value == "}":
                depth = max(0, depth - 1)
                if depth == 0:
                    return

    def name_list(self, what: str) -> list[str]:
        names = [self.ident(what)[1]]
        while self.accept(","):
            names.append(self.ident(what)[1])
        return names

    def body(self, what: str, member, owner) -> None:
        """Read a body's members with ``member(owner)`` through its '}'."""
        while (value := self.peek()) != "}":
            if not value:
                self.fail(f"{what} body is not closed", "'}'")
            try:
                member(owner)
            except _StatementError:
                self.sync_statement()
        self.pos += 1

    # Top-level declarations -------------------------------------------------

    def parse_model(self, model: Model) -> None:
        """Add the declarations the tokens hold to ``model``."""
        while value := self.peek():
            try:
                if self.accept("interface"):
                    model.interfaces.append(self.interface_decl())
                elif self.accept("class"):
                    model.classes.append(self.class_decl())
                elif self.accept("assoc"):
                    model.associations.append(self.assoc_decl())
                elif not self.accept(";"):
                    self.fail(f"expected a declaration, found {value!r}",
                              "'interface', 'class' or 'assoc'")
            except _StatementError:
                self.sync_toplevel()

    def interface_decl(self) -> Interface:
        name_tok = self.ident("interface name")
        is_group = self.accept("group")
        generals = self.name_list("interface name") if self.accept(":") else []
        self.expect("{")
        iface = Interface(name_tok[1], generals, is_group, [], self.span(name_tok))
        self.body("interface", self.operation, iface)
        return iface

    def operation(self, iface: Interface) -> None:
        if not self.accept("op"):
            self.fail(f"expected an operation, found {self.peek()!r}", "'op'")
        iface.operations.append(self.ident("operation name")[1])
        self.end_statement()

    def class_decl(self) -> Class:
        name_tok = self.ident("class name")
        kind = _KINDS.get(self.peek())
        if kind is None:
            kind = ClassKind.PASSIVE
        else:
            self.pos += 1
        generals = [self.ident("class name")[1]] if self.accept(":") else []
        self.expect("{")
        cls = Class(name_tok[1], kind, generals, [], [], [], [], [], [], self.span(name_tok))
        self.body("class", self.class_member, cls)
        return cls

    def class_member(self, cls: Class) -> None:
        keyword = self.peek()
        if keyword == "part" or keyword == "port":
            self.pos += 1
            name_tok = self.ident(f"{keyword} name")
            self.expect(":")
            type_name = self.ident("type name" if keyword == "part" else "interface name")[1]
            if keyword == "port":
                cls.ports.append(Port(name_tok[1], type_name, self.accept("reversed"),
                                      self.span(name_tok)))
            else:
                multiplicity = 1
                match = _MULT_RE.match(self.peek())
                if match:
                    try:
                        multiplicity = int(match.group(1))
                    except ValueError:  # more digits than int() converts
                        self.fail("multiplicity has too many digits")
                    self.pos += 1
                cls.parts.append(Part(name_tok[1], type_name, multiplicity, self.span(name_tok)))
        elif keyword == "connector":
            conn_tok = self.advance()
            end1 = self.connector_end()
            self.expect(",")
            end2 = self.connector_end()
            association = self.ident("association name")[1] if self.accept("via") else None
            cls.connectors.append(Connector(end1, end2, association, self.span(conn_tok)))
        elif keyword == "realizes" or keyword == "uses":
            self.pos += 1
            names = self.name_list("interface name")
            (cls.realizes if keyword == "realizes" else cls.usages).extend(names)
        else:
            self.fail(f"expected a class member, found {keyword!r}",
                      "'realizes', 'uses', 'part', 'port' or 'connector'")
        self.end_statement()

    def connector_end(self) -> EndRef:
        head = self.ident("part name, or 'self'")[1]
        if head != "self" and self.peek() != ".":
            return EndRef(head, None)
        self.expect(".")
        return EndRef(None if head == "self" else head, self.ident("port name")[1])

    def assoc_decl(self) -> Association:
        name_tok = self.ident("association name")
        self.expect("(")
        end1 = self.assoc_end()
        self.expect(",")
        end2 = self.assoc_end()
        self.expect(")")
        self.accept(";")
        return Association(name_tok[1], end1, end2, False, self.span(name_tok))

    def assoc_end(self) -> AssociationEnd:
        return AssociationEnd(self.ident("classifier name")[1], self.accept("nav"))


def parse_dsl(text: str, filename: str = "<dsl>") -> Model:
    """Parse DSL text into a model; raises :class:`ParseFailure` with every
    error found (recovery resumes at statement boundaries). The statement
    reader goes first; where it declines, the token parser reads on from the
    declined line, first to the end of the class open there."""
    model, first_line, cls = _read_statements(text, filename)
    if first_line is None:
        return model
    tokens, errors = _tokenize(text, filename, first_line)
    parser = _Parser(tokens, filename)
    if cls is not None:
        try:
            parser.body("class", parser.class_member, cls)
        except _StatementError:
            parser.sync_toplevel()
    parser.parse_model(model)
    errors += parser.errors
    if errors:
        errors.sort(key=lambda e: (e.span.line, e.span.column))
        raise ParseFailure(errors)
    return model


# JSON interchange -----------------------------------------------------------

# Each kind of JSON element has one schema table. A field is a key, a default
# (``_REQUIRED`` for none; ``()`` for an absent array, so that each record
# gets a list of its own), a type test and what to report when the test
# rejects a value: a message about the field's ``{key}`` at the element, or a
# function; a field that holds elements of another table ends with that table.
# A test returns what the record takes, or raises ``_Rejected``.
#
# Each table's builder is derived from its fields when the table is made:
# straight-line code that makes every type test of the table, raises
# ``_Rejected`` at the first that fails and otherwise builds the record in one
# call, the record the table's tests would give. Only when a builder rejects
# is the table read field by field: each rejected field is then reported in
# table order and nothing is built, since any error discards the model. The
# writer, :func:`model_to_dict`, walks the same tables.

_REQUIRED = object()


class _Rejected(Exception):
    """Internal signal: a value fails its field's type test."""


def _synthesized(raw) -> bool:
    """An association synthesis made, skipped unread: synthesis remakes it."""
    return type(raw) is dict and raw.get("synthesized") is True


class _Table:
    """The schema of one kind of element, the ``record`` class it builds, and
    ``build``, its builder."""

    __slots__ = ("build", "fields", "named", "record")

    def __init__(self, record: type, *fields: tuple, named: bool = False):
        self.record = record
        self.fields = fields
        self.named = named  # a bad name stops the element: nothing else of it is checked
        self.build = _derive_build(record, fields)


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
        for key, default, test, message, *_ in table.fields:
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


# The inline form of each scalar type test in a derived builder: the
# condition on which the test rejects the value ``v``, and what the record
# takes of ``v``.
_INLINE = {
    _name: ("type(v) is not str or not v", "v"),
    _string: ("type(v) is not str", "v"),
    _boolean: ("type(v) is not bool", "v"),
    _integer: ("type(v) is not int", "v"),
    _optional_string: ("v is not None and type(v) is not str", "v"),
    _optional_name: ("v is not None and (type(v) is not str or not v)", "v"),
    _kind: ("type(v) is not str or v not in _KINDS", "_KINDS[v]"),
}
_RECORD_FIELD = {"group": "is_group", "uses": "usages"}  # where key and field differ


def _derive_build(record: type, fields: tuple):
    """The builder of ``record`` elements with ``fields``. It tests each field
    in table order, inline where ``_INLINE`` has the test's form and by a call
    to the test otherwise, and passes the values in ``record``'s field order."""
    namespace = {"_Rejected": _Rejected, "_REQUIRED": _REQUIRED, "_KINDS": _KINDS,
                 "record": record}
    lines = ["def build(raw):", "    if type(raw) is not dict:", "        raise _Rejected",
             "    get = raw.get"]
    values = {}
    for i, (key, default, test, *_) in enumerate(fields):
        read = f"get({key!r}, {'_REQUIRED' if default is _REQUIRED else repr(default)})"
        if test in _INLINE:
            rejects, value = (re.sub(r"\bv\b", f"a{i}", form) for form in _INLINE[test])
            lines += [f"    a{i} = {read}", f"    if {rejects}:", "        raise _Rejected"]
        else:
            namespace[f"test{i}"] = test
            lines.append(f"    a{i} = test{i}({read})")
            value = f"a{i}"
        values[_RECORD_FIELD.get(key, key)] = value
    args = ", ".join(values[name] for name in record.__match_args__[:len(fields)])
    lines.append(f"    return record({args})")
    exec(compile("\n".join(lines), f"<builder of {record.__name__}>", "exec"), namespace)
    return namespace["build"]


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
    """The test, report and table of a field that holds one element of ``table``."""

    def report(reader: _JsonReader, path: tuple, key: str, value) -> None:
        if type(value) is dict:
            reader.report(table, value, (*path, key))
        else:
            reader.err(path, f"field '{key}' must be an object")

    return table.build, report, table


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
        return list(map(test, value)) if value else value

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
    """The test, report and table of a field that holds an array of ``table`` elements."""
    return (*_array(table.build, lambda reader, path, raw: reader.report(table, raw, path), skip),
            table)


_NAME = ("name", _REQUIRED, _name, _report_name)
_STRINGS = ((), *_array(_string, lambda reader, path, item: reader.err(path, "must be a string")))
_NAMES = ((), *_array(_name, lambda reader, path, item: reader.err(
    path, "must not be empty" if item == "" else "must be a string")))
_MUST_BE_A_STRING = "field '{key}' must be a string"
_MUST_BE_A_BOOLEAN = "field '{key}' must be a boolean"

_INTERFACE = _Table(
    Interface, _NAME, ("group", False, _boolean, _MUST_BE_A_BOOLEAN),
    ("generals", *_STRINGS), ("operations", *_NAMES), named=True)
_ATTRIBUTE = _Table(Attribute, _NAME, ("type", _REQUIRED, _string, _MUST_BE_A_STRING))
_PART = _Table(Part, _NAME, ("type", _REQUIRED, _string, _MUST_BE_A_STRING),
               ("multiplicity", 1, _integer, _report_integer))
_PORT = _Table(Port, _NAME, ("contract", _REQUIRED, _string, _MUST_BE_A_STRING),
               ("reversed", False, _boolean, _MUST_BE_A_BOOLEAN))
_END_REF = _Table(EndRef, *[(key, None, _optional_string, _says_of_end("'{key}' must be a string"))
                            for key in ("part", "port")])
_CONNECTOR = _Table(Connector, ("end1", None, *_end(_END_REF)),
                    ("end2", None, *_end(_END_REF)),
                    ("association", None, _optional_string, "'{key}' must be a string"))
_CLASS = _Table(
    Class, _NAME, ("kind", _PASSIVE, _kind, _report_kind),
    ("generals", *_STRINGS), ("realizes", *_STRINGS), ("uses", *_STRINGS),
    ("attributes", (), *_elements(_ATTRIBUTE)), ("parts", (), *_elements(_PART)),
    ("ports", (), *_elements(_PORT)), ("connectors", (), *_elements(_CONNECTOR)), named=True)
_ASSOCIATION_END = _Table(
    AssociationEnd, ("type", _REQUIRED, _string, _MUST_BE_A_STRING),
    ("navigable", False, _boolean, _says_of_end("'{key}' must be a boolean")))
_ASSOCIATION = _Table(Association, _NAME, ("end1", None, *_end(_ASSOCIATION_END)),
                      ("end2", None, *_end(_ASSOCIATION_END)), named=True)
_MODEL = _Table(
    Model, ("interfaces", (), *_elements(_INTERFACE)), ("classes", (), *_elements(_CLASS)),
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


def _json_object(table: _Table, record) -> dict:
    """The JSON object of ``record``: each field of ``table`` in table order,
    less one whose default is None while it holds None (``null`` stands for
    absent). An array field is copied, a field holding a table is written
    through it, and a synthesized association ends with ``"synthesized": true``."""
    obj = {}
    for key, default, _, _, *held in table.fields:
        value = getattr(record, _RECORD_FIELD.get(key, key))
        if value is None and default is None:
            continue
        if default == ():  # an array
            value = [_json_object(*held, item) for item in value] if held else list(value)
        elif held:
            value = _json_object(*held, value)
        elif type(value) is ClassKind:
            value = value.value
        obj[key] = value
    if table is _ASSOCIATION and record.is_deleg_default:
        obj["synthesized"] = True
    return obj


def model_to_dict(model: Model) -> dict:
    """The canonical JSON object form of a model: ``formatVersion``, then the
    fields of the document's schema table in its order."""
    return {"formatVersion": FORMAT_VERSION, **_json_object(_MODEL, model)}


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
