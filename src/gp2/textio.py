"""Text formats: program and host-graph parsing, graph printing.

Host graph grammar::

    Graph ::= '[' Node* '|' Edge* ']'
    Node  ::= '(' INT Root? ',' Label ')'        Root ::= '(R)'
    Edge  ::= '(' INT ',' INT ',' INT ',' Label ')'   (id, source, target)
    Label ::= List ('#' Mark)?
    List  ::= 'empty' | Atom (':' Atom)*
    Atom  ::= INT | STRING

Programs are declarations ``Name = CommandSequence`` plus rule
declarations ``name(vars) [ lhs ] => [ rhs ] where cond``; rule graphs
reuse the host syntax with expression labels, and interface nodes are
the ones whose number appears on both sides.  A bidirectional rule edge
carries the marker ``(B)`` after its id.  Whitespace and newlines are
insignificant; ``//`` starts a line comment.  Commands parse to tagged
tuples, one per construct, with the source position of each rule set,
call and break: ``('rules', names, loc)``, ``('call', name, loc)``,
``('seq', cmd, ...)``, ``('if', guard, then, else)``, ``('try', guard,
then, else)``, ``('loop', body)``, ``('skip',)``, ``('fail',)`` and
``('break', loc)``.  ``inline_procedures`` checks a program's commands
and expands its calls into the Main that ``engine`` runs.

The token reader scans the text a token at a time with one compiled
pattern, as the parser takes them, so errors come in reading order: a
lex error is reported only once reading reaches it, after any error
before it.  Host graphs are first read a whole item per pattern match,
with the token reader's checks on each item.  At the first item those
patterns do not cover, or that fails a check, the token reader takes
over from that item's offset and reads to the end.  Every error is
therefore raised by the token reader, with its message and position.
"""

from __future__ import annotations

import re
from typing import Optional

from .graph import (
    EDGE_MARKS,
    FLAG_ROOT,
    INT32_MAX,
    INT32_MIN,
    MARK_ANY,
    MARK_NONE,
    MAX_EXTERNAL_ID,
    NODE_MARKS,
    Graph,
)
from .rules import (VAR_TYPES, LabelPattern, PatternEdge, PatternGraph, PatternNode, Rule,
                    RuleError, nesting, subterms, wrap32)

KEYWORDS = frozenset((
    "if", "then", "else", "try", "skip", "fail", "break", "where",
    "not", "and", "or", "edge", "empty", "indeg", "outdeg", *VAR_TYPES,
))

ALL_MARKS = NODE_MARKS | EDGE_MARKS | {MARK_ANY}


class SourceError(Exception):
    def __init__(self, kind: str, line: int, column: int, message: str):
        self.kind = kind
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{kind} error at {line}:{column}: {message}")


# -- lexer ---------------------------------------------------------------

# One token, after any blanks: ``lastgroup`` names its kind.  A string
# with no closing quote on its line falls through to ``error`` at its
# opening quote.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<newline>\n) | (?P<comment>//[^\n]*) | (?P<EOF>\Z)
  | (?P<INT>\d+) | (?P<IDENT>[A-Za-z_]\w*) | (?P<STRING>"[^"\n]*")
  | (?P<punct>=>|!=|>=|<=|[][(){}|,;:\#=!<>+*/.-]) | (?P<error>.))""",
                    re.ASCII | re.VERBOSE)

MAX_INT_DIGITS = 4300   # longer INT literals are a lex error, on every Python version


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


class _Stream:
    """The tokens of ``text``, each scanned when the parser takes the one
    before it, so errors come in reading order.  The state is the
    current token and where scanning resumes: (offset, line, offset of
    the line's start)."""

    __slots__ = ("text", "tok", "resume")

    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.tok = Token(None, None, 1, 1)      # taken by the first next()
        self.resume = (offset, text.count("\n", 0, offset) + 1, text.rfind("\n", 0, offset) + 1)
        self.next()

    def peek(self) -> Token:
        return self.tok

    def next(self) -> Token:
        """Take the current token.  The state changes only once the
        following token is scanned."""
        tok = self.tok
        if tok.kind == "EOF":
            return tok
        text, (offset, line, line_start) = self.text, self.resume
        while True:
            m = _TOKEN.match(text, offset)
            kind, offset = m.lastgroup, m.end()
            if kind == "newline":
                line, line_start = line + 1, offset
            elif kind != "comment":
                break
        value = m[kind]
        column = m.start(kind) - line_start + 1
        if kind == "punct":
            kind = value
        elif kind == "INT" and len(value) <= MAX_INT_DIGITS:
            value = int(value)
        elif kind == "STRING" and value.isprintable():
            value = value[1:-1]
        elif kind == "EOF":
            value = None
        elif kind != "IDENT":       # a lex error, an unprintable string, a long INT
            if kind == "INT":
                message = "integer literal too long"
            elif value[0] != '"':
                message = f"unexpected character {value!r}"
            elif kind == "error" and text[offset:].isprintable():
                message = "unterminated string literal"
            else:
                message = "bad character in string literal"
            raise SourceError("lex", line, column, message)
        self.tok, self.resume = Token(kind, value, line, column), (offset, line, line_start)
        return tok

    def state(self) -> tuple:
        return self.tok, self.resume

    def restore(self, state: tuple) -> None:
        self.tok, self.resume = state

    def accept_word(self, word: str) -> Optional[Token]:
        tok = self.tok
        return self.next() if tok.kind == "IDENT" and tok.value == word else None

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok.kind != kind:
            raise SourceError("syntax", tok.line, tok.column,
                              f"expected {kind!r}, found {describe(tok)}")
        return self.next()

    def accept(self, kind: str) -> Optional[Token]:
        if self.tok.kind == kind:
            return self.next()
        return None


def describe(tok: Token) -> str:
    if tok.kind == "EOF":
        return "end of input"
    return repr(tok.value)


def _error(tok: Token, message: str, kind: str = "syntax") -> SourceError:
    return SourceError(kind, tok.line, tok.column, message)


# -- graph items shared by host and rule graphs -----------------------------


def _parse_marker(ts: _Stream, letter: str, message: str) -> bool:
    """The optional ``(R)``/``(B)`` marker after an item id."""
    if not ts.accept("("):
        return False
    marker = ts.expect("IDENT")
    if marker.value != letter:
        raise _error(marker, message)
    ts.expect(")")
    return True


def _parse_mark(ts: _Stream, marks, message: str) -> str:
    """The optional ``# mark`` suffix of a label; ``message`` is formatted
    with a mark not in ``marks``."""
    if not ts.accept("#"):
        return MARK_NONE
    mtok = ts.expect("IDENT")
    if mtok.value not in marks:
        raise _error(mtok, message.format(mtok.value), "semantic")
    return mtok.value


# -- host graphs ----------------------------------------------------------


def _parse_int(ts: _Stream, minus: Optional[Token] = None) -> int:
    """An integer literal, negated when ``minus`` precedes it; hosts and
    rules alike take only values that fit 32 bits."""
    tok = ts.expect("INT")
    v = -tok.value if minus else tok.value
    if not INT32_MIN <= v <= INT32_MAX:
        raise _error(minus or tok, "integer does not fit 32 bits", "semantic")
    return v


def _parse_host_atom(ts: _Stream):
    tok = ts.peek()
    if tok.kind == "-" or tok.kind == "INT":
        return _parse_int(ts, ts.accept("-"))
    if tok.kind == "STRING":
        ts.next()
        return tok.value
    raise _error(tok, f"expected a list atom, found {describe(tok)}")


def _parse_host_label(ts: _Stream, marks) -> tuple[tuple, str]:
    if ts.accept_word("empty"):
        atoms = ()
    else:
        items = [_parse_host_atom(ts)]
        while ts.accept(":"):
            items.append(_parse_host_atom(ts))
        atoms = tuple(items)
    return atoms, _parse_mark(ts, marks, "{!r} is not a valid mark here")


# The fast reader takes a whole item per match.  Blanks are the lexer's,
# ids have at most 19 digits and label ints at most 10, so every value
# converts; a comment, a form feed or a longer int ends fast reading.
_BLANKS = r"[ \t\r\n]*"
_ATOM = r'(?:-?\d{1,10}|"[^"\n]*")'
# An item's label, mark and closing ``)``; the groups are the atoms' text
# and the mark.  Node items also capture the id and the root marker, edge
# items the source and target ids.
_LABEL = (rf"(empty|{_ATOM}(?:{_BLANKS}:{_BLANKS}{_ATOM})*)"
          rf"(?:{_BLANKS}\#{_BLANKS}(\w+))?{_BLANKS}\)")
_ID = rf"{_BLANKS}(\d{{1,19}}){_BLANKS}"
_HOST_OPEN = re.compile(rf"{_BLANKS}\[", re.ASCII)
_HOST_NODE = re.compile(rf"{_BLANKS}\({_ID}(\({_BLANKS}R{_BLANKS}\){_BLANKS})?,{_BLANKS}{_LABEL}",
                        re.ASCII)
_HOST_BAR = re.compile(rf"{_BLANKS}\|", re.ASCII)
_HOST_EDGE = re.compile(rf"{_BLANKS}\({_BLANKS}\d{{1,19}}{_BLANKS},{_ID},{_ID},{_BLANKS}{_LABEL}",
                        re.ASCII)
_HOST_CLOSE = re.compile(rf"{_BLANKS}\]{_BLANKS}\Z", re.ASCII)
_HOST_ATOM = re.compile(r'(-?\d+)|"([^"\n]*)"', re.ASCII)


def _fast_label(text: str) -> Optional[tuple]:
    """The atoms of a label that ``_LABEL`` matched, or None if one of
    them fails the check the token reader makes."""
    if text == "empty":
        return ()
    atoms = []
    for number, string in _HOST_ATOM.findall(text):
        if number:
            value = int(number)
            if not INT32_MIN <= value <= INT32_MAX:
                return None
            atoms.append(value)
        elif string.isprintable():
            atoms.append(string)
        else:
            return None
    return tuple(atoms)


def _read_host_fast(text: str, index: dict, nodes: list, edges: list) -> tuple[int, int]:
    """Read items one match each while they match and pass every check.
    Returns the offset where reading stopped and the section there: 0
    before ``[``, 1 among the nodes, 2 among the edges, 3 when done."""
    m = _HOST_OPEN.match(text)
    if not m:
        return 0, 0
    offset = m.end()
    while m := _HOST_NODE.match(text, offset):
        node_id, root, label, mark = m.groups()
        node_id, label = int(node_id), _fast_label(label)
        if node_id in index or node_id > MAX_EXTERNAL_ID or label is None \
                or mark and mark not in NODE_MARKS:
            return offset, 1
        index[node_id] = len(nodes)
        nodes.append((label, mark or MARK_NONE, root is not None))
        offset = m.end()
    m = _HOST_BAR.match(text, offset)
    if not m:
        return offset, 1
    offset = m.end()
    while m := _HOST_EDGE.match(text, offset):
        source, target, label, mark = m.groups()
        source, target = index.get(int(source)), index.get(int(target))
        label = _fast_label(label)
        if source is None or target is None or label is None \
                or mark and mark not in EDGE_MARKS:
            return offset, 2
        edges.append((source, target, label, mark or MARK_NONE))
        offset = m.end()
    m = _HOST_CLOSE.match(text, offset)
    return (m.end(), 3) if m else (offset, 2)


def _read_host_tokens(ts: _Stream, section: int, index: dict, nodes: list,
                      edges: list) -> None:
    """Read the rest of a host graph a token at a time, from ``section``
    as ``_read_host_fast`` numbers them, checking each item as it is read."""
    if section == 0:
        ts.expect("[")
    if section <= 1:
        while ts.accept("("):
            id_tok = ts.peek()
            if id_tok.kind == "-":
                raise _error(id_tok, "node ids must be non-negative integers", "semantic")
            node_id = ts.expect("INT").value
            if node_id in index:
                raise _error(id_tok, f"duplicate node id: {node_id}", "semantic")
            if node_id > MAX_EXTERNAL_ID:
                raise _error(id_tok, f"node id out of range: {node_id}", "semantic")
            index[node_id] = len(nodes)
            root = _parse_marker(ts, "R", "expected root marker (R)")
            ts.expect(",")
            label, mark = _parse_host_label(ts, NODE_MARKS)
            ts.expect(")")
            nodes.append((label, mark, root))
        ts.expect("|")
    while ts.accept("("):
        ts.expect("INT")                        # edge id, cosmetic
        ends = []                               # source, target
        for _ in range(2):
            ts.expect(",")
            tok = ts.expect("INT")
            if tok.value not in index:
                raise _error(tok, f"edge refers to unknown node {tok.value}", "semantic")
            ends.append(index[tok.value])
        ts.expect(",")
        label, mark = _parse_host_label(ts, EDGE_MARKS)
        ts.expect(")")
        edges.append((*ends, label, mark))
    ts.expect("]")
    tok = ts.peek()
    if tok.kind != "EOF":
        raise _error(tok, f"unexpected {describe(tok)} after graph")


def _build_host(nodes: list, edges: list) -> Graph:
    """The graph of the items read: ``nodes`` holds (label, mark, root)
    per node and ``edges`` (source place, target place, label, mark)."""
    # Insert in reverse declaration order: printing walks the nodes, and
    # each node's out-edges, newest first, so it reproduces the input's
    # ordering.  Both backends then visit the last-declared node first.
    g = Graph()
    for place in range(len(nodes) - 1, -1, -1):
        nodes[place] = g.add_node(*nodes[place])
    while edges:
        source, target, label, mark = edges.pop()
        g.add_edge(nodes[source], nodes[target], label, mark)
    return g


def parse_host_graph(text: str) -> Graph:
    """Read a host graph, checking each item as it is read; until the
    graph is built, only what ``add_node`` and ``add_edge`` take is kept.

    Items are read one pattern match each.  At the first item that the
    patterns do not cover (a comment, an odd blank, a long int) or that
    fails a check, the token reader takes over from that item's offset,
    its line and column counted from the text, and reads to the end.
    So every error is found, worded and placed by the token reader."""
    index: dict[int, int] = {}                  # node id -> declaration place
    nodes: list = []
    edges: list = []
    offset, section = _read_host_fast(text, index, nodes, edges)
    if section < 3:
        _read_host_tokens(_Stream(text, offset), section, index, nodes, edges)
    del index                                   # edges hold places: free it before the build
    return _build_host(nodes, edges)


def _format_label(label: tuple, mark: str) -> str:
    text = ":".join(f'"{a}"' if isinstance(a, str) else str(a) for a in label) or "empty"
    return text if mark == MARK_NONE else f"{text} # {mark}"


def print_graph(g: Graph) -> str:
    parts = ["["]
    nodes = g.nodes()
    number = {node: i for i, node in enumerate(nodes)}
    texts: dict = {}        # (label, mark) -> its text, formatted once
    for i, node in enumerate(nodes):
        key = (node.label, node.mark)
        text = texts.get(key) or texts.setdefault(key, _format_label(*key))
        parts.append(f"({i} (R), {text})" if node.flags & FLAG_ROOT else f"({i}, {text})")
    parts.append("|")
    eid = 0
    for src, node in enumerate(nodes):
        edge = node.out_head
        while edge is not None:
            key = (edge.label, edge.mark)
            text = texts.get(key) or texts.setdefault(key, _format_label(*key))
            parts.append(f"({eid}, {src}, {number[edge.target]}, {text})")
            eid += 1
            edge = edge.src_next
    parts.append("]")
    return " ".join(parts)


# -- expressions ----------------------------------------------------------


# Binary operators, one level per dict from the loosest binding, each
# mapping an operator token (a word by its text) to its tag: expressions
# and conditions.  All of them associate to the left.
_EXPR_LEVELS = ({":": "cons"}, {".": "cat"}, {"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})
_COND_LEVELS = ({"or": "or"}, {"and": "and"})


def _parse_binary(ts: _Stream, levels: tuple, operand, i: int = 0):
    """A chain of operators of ``levels[i]``, whose operands are chains of
    the next level's or, below the last, what ``operand`` parses."""
    last = i + 1 == len(levels)
    left = operand(ts) if last else _parse_binary(ts, levels, operand, i + 1)
    ops = levels[i]
    while True:
        tok = ts.peek()
        tag = ops.get(tok.value if tok.kind == "IDENT" else tok.kind)
        if tag is None:
            return left
        ts.next()
        right = operand(ts) if last else _parse_binary(ts, levels, operand, i + 1)
        left = (tag, left, right)


def _parse_expr(ts: _Stream):
    return _parse_binary(ts, _EXPR_LEVELS, _parse_unary)


def _parse_unary(ts: _Stream):
    minus = ts.accept("-")
    if minus is not None:
        if ts.peek().kind == "INT":
            return ("int", _parse_int(ts, minus))
        inner = _parse_unary(ts)
        if inner[0] == "int":
            # folded as evaluation would negate it
            return ("int", wrap32(-inner[1]))
        return ("neg", inner)
    return _parse_primary(ts)


def _parse_primary(ts: _Stream):
    tok = ts.peek()
    if tok.kind == "INT":
        return ("int", _parse_int(ts))
    if tok.kind == "STRING":
        ts.next()
        return ("str", tok.value)
    if tok.kind == "(":
        ts.next()
        inner = _parse_expr(ts)
        ts.expect(")")
        return inner
    if tok.kind == "IDENT":
        if tok.value == "empty":
            ts.next()
            return ("empty",)
        if tok.value in ("indeg", "outdeg"):
            ts.next()
            ts.expect("(")
            node_tok = ts.expect("INT")
            ts.expect(")")
            return (tok.value, node_tok.value)
        ts.next()
        return ("var", tok.value)
    raise _error(tok, f"expected an expression, found {describe(tok)}")


# -- conditions ------------------------------------------------------------

_RELOPS = ("=", "!=", ">", ">=", "<", "<=")
_EXPR_CONT = {op for level in _EXPR_LEVELS for op in level}


def _parse_cond_not(ts: _Stream):
    if ts.accept_word("not"):
        return ("not", _parse_cond_not(ts))
    return _parse_cond_atom(ts)


def _parse_cond_atom(ts: _Stream):
    tok = ts.peek()
    if tok.kind == "IDENT" and tok.value == "edge":
        ts.next()
        ts.expect("(")
        src = ts.expect("INT").value
        ts.expect(",")
        tgt = ts.expect("INT").value
        label = None
        if ts.accept(","):
            label = _parse_expr(ts)
        ts.expect(")")
        return ("edge", src, tgt, label)
    if tok.kind == "IDENT" and tok.value in ("int", "char", "string", "atom"):
        saved = ts.state()
        ts.next()
        if ts.accept("("):
            var = ts.expect("IDENT")
            ts.expect(")")
            return ("typecheck", tok.value, var.value)
        ts.restore(saved)
    if tok.kind == "(":
        # Could be a bracketed condition or a bracketed expression that
        # starts a comparison; try the condition reading first.
        saved = ts.state()
        try:
            ts.next()
            inner = _parse_binary(ts, _COND_LEVELS, _parse_cond_not)
            ts.expect(")")
            nxt = ts.peek()
            if nxt.kind not in _RELOPS and nxt.kind not in _EXPR_CONT:
                return inner
        except SourceError:
            pass
        ts.restore(saved)
    left = _parse_expr(ts)
    op = ts.peek()
    if op.kind not in _RELOPS:
        raise _error(op, f"expected a relational operator, found {describe(op)}")
    ts.next()
    right = _parse_expr(ts)
    return ("rel", op.kind, left, right)


# -- rule declarations ------------------------------------------------------


def _expr_to_label_pattern(expr, tok: Token, variables) -> LabelPattern:
    items: list[tuple] = []

    def flatten(e):
        tag = e[0]
        if tag == "cons":
            flatten(e[1])
            flatten(e[2])
        elif tag == "empty":
            pass
        elif tag == "int" or tag == "str":
            items.append(("lit", e[1]))
        elif tag == "var":
            name = e[1]
            if name not in variables:
                raise _error(tok, f"undeclared variable {name!r}", "semantic")
            items.append(("var", name, variables[name]))
        else:
            raise _error(tok, "left-hand labels may only contain constants "
                              "and variables", "semantic")

    flatten(expr)
    try:
        return LabelPattern(items)
    except RuleError as exc:
        raise _error(tok, str(exc), "semantic")


def _parse_rule_label(ts: _Stream, marks, message: str):
    """A rule item's label, mark and closing ``)``: returns the label's
    first token, its expression and the mark."""
    lab_tok = ts.peek()
    expr = _parse_expr(ts)
    mark = _parse_mark(ts, ALL_MARKS, "unknown mark {!r}")
    ts.expect(")")
    if mark != MARK_ANY and mark not in marks:
        raise _error(lab_tok, message.format(mark), "semantic")
    return lab_tok, expr, mark


def _parse_rule_side(ts: _Stream, variables, lhs: bool):
    ts.expect("[")
    nodes = []
    node_ids = set()
    while ts.accept("("):
        id_tok = ts.expect("INT")
        if id_tok.value in node_ids:
            raise _error(id_tok, f"node {id_tok.value} declared twice", "semantic")
        node_ids.add(id_tok.value)
        root = _parse_marker(ts, "R", "expected root marker (R)")
        ts.expect(",")
        lab_tok, expr, mark = _parse_rule_label(ts, NODE_MARKS, "{!r} is not a node mark")
        label = _expr_to_label_pattern(expr, lab_tok, variables) if lhs else expr
        nodes.append(PatternNode(id_tok.value, label, mark, root))
    ts.expect("|")
    edges = []
    edge_ids = set()
    while ts.accept("("):
        eid_tok = ts.expect("INT")
        if eid_tok.value in edge_ids:
            raise _error(eid_tok, f"edge {eid_tok.value} declared twice", "semantic")
        edge_ids.add(eid_tok.value)
        bidir = _parse_marker(ts, "B", "expected bidirectional marker (B)")
        ts.expect(",")
        src_tok = ts.expect("INT")
        ts.expect(",")
        tgt_tok = ts.expect("INT")
        ts.expect(",")
        lab_tok, expr, mark = _parse_rule_label(ts, EDGE_MARKS, "{!r} is not an edge mark")
        for t in (src_tok, tgt_tok):
            if t.value not in node_ids:
                raise _error(t, f"edge endpoint {t.value} is not a node on this side",
                             "semantic")
        label = _expr_to_label_pattern(expr, lab_tok, variables) if lhs else expr
        edges.append(PatternEdge(eid_tok.value, src_tok.value, tgt_tok.value,
                                 label, mark, bidir))
    ts.expect("]")
    return PatternGraph(nodes, edges)


def _expr_type(expr, variables, tok) -> str:
    tag = expr[0]
    if tag == "int":
        return "int"
    if tag == "str":
        return "string"
    if tag == "empty":
        return "list"
    if tag == "var":
        if expr[1] not in variables:
            raise _error(tok, f"undeclared variable {expr[1]!r}", "semantic")
        return variables[expr[1]]
    if tag in ("indeg", "outdeg"):
        return "int"
    if tag == "cons":
        _expr_type(expr[1], variables, tok)
        _expr_type(expr[2], variables, tok)
        return "list"
    if tag == "cat":
        for sub in (expr[1], expr[2]):
            if _expr_type(sub, variables, tok) not in ("string", "char"):
                raise _error(tok, "'.' requires string operands", "semantic")
        return "string"
    if tag == "neg":
        if _expr_type(expr[1], variables, tok) != "int":
            raise _error(tok, "unary '-' requires an integer operand", "semantic")
        return "int"
    # add/sub/mul/div
    for sub in (expr[1], expr[2]):
        if _expr_type(sub, variables, tok) != "int":
            raise _error(tok, "arithmetic requires integer operands", "semantic")
    return "int"


def _parse_rule_decl(ts: _Stream, name_tok: Token) -> Rule:
    name = name_tok.value
    ts.expect("(")
    variables: dict[str, str] = {}
    if ts.peek().kind != ")":
        while True:
            group = [ts.expect("IDENT")]
            while ts.accept(","):
                group.append(ts.expect("IDENT"))
            ts.expect(":")
            type_tok = ts.expect("IDENT")
            if type_tok.value not in VAR_TYPES:
                raise _error(type_tok, f"unknown variable type {type_tok.value!r}",
                             "semantic")
            for t in group:
                if t.value in variables:
                    raise _error(t, f"variable {t.value!r} declared twice", "semantic")
                variables[t.value] = type_tok.value
            if not ts.accept(";"):
                break
    ts.expect(")")
    lhs = _parse_rule_side(ts, variables, lhs=True)
    ts.expect("=>")
    rhs = _parse_rule_side(ts, variables, lhs=False)
    condition = None
    if ts.accept_word("where"):
        condition = _parse_binary(ts, _COND_LEVELS, _parse_cond_not)

    rule = Rule(name, variables, lhs, rhs, condition)
    _validate_rule(rule, name_tok)
    return rule


# Compiling and interpreting a term recurse up to twice per nesting level:
# within this bound, every label and condition that validates can run.
MAX_NESTING = 256


def _validate_rule(rule: Rule, tok: Token) -> None:
    terms = [item.label for item in rule.rhs.nodes + rule.rhs.edges]
    if rule.condition is not None:
        terms.append(rule.condition)
    if max(map(nesting, terms), default=0) > MAX_NESTING:
        raise _error(tok, f"label or condition nested deeper than {MAX_NESTING} "
                          f"levels", "semantic")
    bound = set()
    for item in rule.lhs.nodes + rule.lhs.edges:
        bound.update(name for name, _ in item.label.variables())

    interface = set(rule.interface)
    rhs_vars: set[str] = set()
    for n in rule.rhs.nodes:
        rhs_vars.update(t[1] for t in subterms(n.label) if t[0] == "var")
        _expr_type(n.label, rule.variables, tok)
        if n.mark == MARK_ANY and n.pid not in interface:
            raise _error(tok, "wildcard mark on a created node has nothing "
                              "to inherit from", "semantic")
    lhs_edge_ids = {e.eid: e for e in rule.lhs.edges}
    for e in rule.rhs.edges:
        rhs_vars.update(t[1] for t in subterms(e.label) if t[0] == "var")
        _expr_type(e.label, rule.variables, tok)
        counterpart = lhs_edge_ids.get(e.eid)
        if e.mark == MARK_ANY and counterpart is None:
            raise _error(tok, "wildcard mark on a created edge has nothing "
                              "to inherit from", "semantic")
        if e.bidir:
            if counterpart is None or not counterpart.bidir or \
                    {counterpart.src, counterpart.tgt} != {e.src, e.tgt}:
                raise _error(tok, "bidirectional right-hand edge needs a "
                                  "matching bidirectional left-hand edge",
                             "semantic")

    unbound = rhs_vars - bound
    if unbound:
        raise _error(tok, f"right-hand side uses unbound variables: "
                          f"{sorted(unbound)}", "semantic")
    if rule.condition is not None:
        terms = list(subterms(rule.condition))
        cond_vars = {t[1] for t in terms if t[0] == "var"} | \
            {t[2] for t in terms if t[0] == "typecheck"}
        for name in sorted(cond_vars):
            if name not in rule.variables:
                raise _error(tok, f"undeclared variable {name!r} in condition",
                             "semantic")
        unbound = cond_vars - bound
        if unbound:
            raise _error(tok, f"condition uses unbound variables: {sorted(unbound)}",
                         "semantic")
        for t in terms:
            if t[0] in ("edge", "indeg", "outdeg"):
                for pid in t[1:3]:      # an edge's endpoints, a degree's node
                    if pid not in rule.lhs.by_id:
                        raise _error(tok, f"condition refers to node {pid}, which "
                                          f"is not in the left-hand side", "semantic")
        for t in terms:
            if t[0] == "rel":
                lt = _expr_type(t[2], rule.variables, tok)
                rt = _expr_type(t[3], rule.variables, tok)
                if t[1] in (">", ">=", "<", "<="):
                    for ty in (lt, rt):
                        if ty != "int":
                            raise _error(tok, f"ordering comparison requires "
                                              f"integers, got {ty}", "semantic")
            elif t[0] == "edge" and t[3] is not None:
                _expr_type(t[3], rule.variables, tok)
    for item in rule.rhs.nodes + rule.rhs.edges:
        for t in subterms(item.label):
            if t[0] in ("indeg", "outdeg") and t[1] not in rule.lhs.by_id:
                raise _error(tok, f"degree operator refers to node {t[1]}, which "
                                  f"is not in the left-hand side", "semantic")


# -- command sequences --------------------------------------------------------


def _parse_command_seq(ts: _Stream):
    cmds = [_parse_command(ts)]
    while ts.accept(";"):
        cmds.append(_parse_command(ts))
    return cmds[0] if len(cmds) == 1 else ("seq", *cmds)


def _parse_command(ts: _Stream):
    cmd = _parse_command_primary(ts)
    while ts.accept("!"):
        cmd = ("loop", cmd)
    return cmd


def _parse_command_primary(ts: _Stream):
    tok = ts.peek()
    if tok.kind == "(":
        ts.next()
        inner = _parse_command_seq(ts)
        ts.expect(")")
        return inner
    if tok.kind == "{":
        ts.next()
        names = [ts.expect("IDENT")]
        while ts.accept(","):
            names.append(ts.expect("IDENT"))
        ts.expect("}")
        return ("rules", tuple(t.value for t in names), (names[0].line, names[0].column))
    if tok.kind != "IDENT":
        raise _error(tok, f"expected a command, found {describe(tok)}")
    word = tok.value
    if word == "if":
        ts.next()
        guard = _parse_command(ts)
        then_tok = ts.expect("IDENT")
        if then_tok.value != "then":
            raise _error(then_tok, "expected 'then'")
        then_cmd = _parse_command(ts)
        else_cmd = ("skip",)
        if ts.accept_word("else"):
            else_cmd = _parse_command(ts)
        return ("if", guard, then_cmd, else_cmd)
    if word == "try":
        ts.next()
        guard = _parse_command(ts)
        then_cmd = else_cmd = ("skip",)
        if ts.accept_word("then"):
            then_cmd = _parse_command(ts)
        if ts.accept_word("else"):
            else_cmd = _parse_command(ts)
        return ("try", guard, then_cmd, else_cmd)
    if word == "skip":
        ts.next()
        return ("skip",)
    if word == "fail":
        ts.next()
        return ("fail",)
    if word == "break":
        ts.next()
        return ("break", (tok.line, tok.column))
    if word in KEYWORDS:
        raise _error(tok, f"expected a command, found {describe(tok)}")
    ts.next()
    return ("call", tok.value, (tok.line, tok.column))


# -- programs ------------------------------------------------------------------


_COMPOUND = ("seq", "if", "try", "loop")     # the tags whose fields are commands


def inline_procedures(program):
    """Check a parsed program's commands and return Main with every
    procedure call expanded into its body (procedures are macros) and
    bare rule calls turned into one-rule sets.

    Raises SourceError at the offending command for, in this order: a
    call of an undeclared name or a non-rule inside ``{...}`` in any
    body; a recursive procedure, at the call that closes the cycle
    (procedures Main never calls included); a break outside of any loop
    in the expanded Main."""
    def err(loc, message):
        line, col = loc or (1, 1)
        raise SourceError("semantic", line, col, message)

    procedures, rules = program.procedures, program.rules

    def check(cmd):
        tag = cmd[0]
        if tag == "rules":
            for name in cmd[1]:
                if name not in rules:
                    err(cmd[2], f"unknown rule {name!r} in rule-set call")
        elif tag == "call":
            if cmd[1] not in procedures and cmd[1] not in rules:
                err(cmd[2], f"call of undeclared name {cmd[1]!r}")
        elif tag in _COMPOUND:
            for c in cmd[1:]:
                check(c)

    for body in (*procedures.values(), program.main):
        check(body)

    # A procedure is expanded once per loop context, and the result is
    # shared by its call sites.  It enters ``expanded`` only when its
    # expansion is done, so a call to one still ``active`` closes a cycle.
    expanded: dict = {}
    active: set[str] = set()

    def expand(cmd, in_loop):
        tag = cmd[0]
        if tag == "call":
            _, name, loc = cmd
            if name not in procedures:
                return ("rules", (name,), loc)
            key = (name, in_loop)
            if key not in expanded:
                if name in active:
                    err(loc, f"recursive procedure {name!r}")
                active.add(name)
                expanded[key] = expand(procedures[name], in_loop)
                active.discard(name)
            return expanded[key]
        if tag == "break" and not in_loop:
            err(cmd[1], "break outside of any loop")
        if tag == "loop":
            return ("loop", expand(cmd[1], True))
        if tag in _COMPOUND:
            return (tag, *(expand(c, in_loop) for c in cmd[1:]))
        return cmd

    for name in procedures:
        expand(("call", name, None), True)
    return expand(program.main, False)


class ParsedProgram:
    def __init__(self, rules: dict[str, Rule], procedures: dict, main):
        self.rules = rules
        self.procedures = procedures
        self.main = main
        self.inlined = inline_procedures(self)   # Main, checked and expanded


def _parse_text(text: str, parse):
    """Run ``parse`` on the tokens of ``text``.  The parsers and checks
    recurse on nesting, so input nested too deeply for the interpreter's
    stack is a syntax error at the token where reading stopped."""
    ts = _Stream(text)
    try:
        return parse(ts)
    except RecursionError:
        raise _error(ts.peek(), "nesting too deep") from None


def parse_program(text: str) -> ParsedProgram:
    return _parse_text(text, _parse_program)


def _parse_program(ts: _Stream) -> ParsedProgram:
    rules: dict[str, Rule] = {}
    procedures: dict = {}
    main = None
    declared: dict[str, Token] = {}
    while ts.peek().kind != "EOF":
        name_tok = ts.expect("IDENT")
        if name_tok.value in KEYWORDS:
            raise _error(name_tok, f"{name_tok.value!r} cannot be a declaration name",
                         "semantic")
        if ts.accept("="):
            body = _parse_command_seq(ts)
            if name_tok.value == "Main":
                if main is not None:
                    raise _error(name_tok, "repeated Main declaration", "semantic")
                main = body
            else:
                if name_tok.value in declared:
                    raise _error(name_tok, f"{name_tok.value!r} declared twice",
                                 "semantic")
                procedures[name_tok.value] = body
                declared[name_tok.value] = name_tok
        elif ts.peek().kind == "(":
            if name_tok.value in declared:
                raise _error(name_tok, f"{name_tok.value!r} declared twice", "semantic")
            rules[name_tok.value] = _parse_rule_decl(ts, name_tok)
            declared[name_tok.value] = name_tok
        else:
            raise _error(ts.peek(), "expected '=' or '(' after declaration name")
    if main is None:
        tok = ts.peek()
        raise _error(tok, "program has no Main declaration", "semantic")

    return ParsedProgram(rules, procedures, main)


def parse_rule(text: str) -> Rule:
    return _parse_text(text, _parse_rule)


def _parse_rule(ts: _Stream) -> Rule:
    name_tok = ts.expect("IDENT")
    rule = _parse_rule_decl(ts, name_tok)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise _error(tok, f"unexpected {describe(tok)} after rule")
    return rule


def validate(kind: str, text: str) -> None:
    """Parse-only check; raises SourceError on any problem."""
    if kind == "program":
        parse_program(text)
    elif kind == "rule":
        parse_rule(text)
    elif kind == "graph":
        parse_host_graph(text)
    else:
        raise ValueError(f"unknown validation kind {kind!r}")
