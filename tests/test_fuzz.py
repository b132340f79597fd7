"""Property tests of the front end: every token the lexer yields sits
at its own text, every input is either accepted or rejected with a
SourceError, and the command line answers with exit code 0, 1 or 2,
never a traceback.

Inputs are strings over the token alphabet, corpus programs, rules and
host graphs with a few tokens deleted, duplicated or replaced, and
deeply nested commands, conditions and labels.  The examples are
derandomized, so a run is reproducible.
"""

import contextlib
import io
import re
import signal

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gp2 import corpus
from gp2.cli import main
from gp2.textio import (SourceError, _read_host_tokens, _Stream, parse_host_graph, parse_program,
                        parse_rule, print_graph)

FUZZ = settings(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

WORDS = (
    "( ) { } [ ] | ! ; , : # = => != < >= + - * / . "
    "if then else try skip fail break where not and or edge empty indeg outdeg "
    "int char string atom list Main P Q r x y n R B red grey dashed any "
    '0 1 2 7 2147483648 "a"'
).split()
# The parsers also meet an integer literal too long to convert; token
# positions are checked on WORDS alone, as they read INT values back.
LONG_INT = "9" * 5000
PARSER_WORDS = WORDS + [LONG_INT]
PROGRAMS = [corpus.load_program(name) for name in corpus.PROGRAM_NAMES]
RULES = [
    "up(a,x,y:list)\n[ (1 (R), x) (2, y) | (0, 2, 1, a) ] =>"
    " [ (1, x) (2 (R), y) | (0, 2, 1, a # dashed) ]",
    "link(a,b,x,y,z:list)\n[ (1, x) (2, y) (3, z) | (1, 1, 2, a) (2, 2, 3, b) ] =>"
    " [ (1, x) (2, y) (3, z) | (1, 1, 2, a) (2, 2, 3, b) (3, 1, 3, empty) ]"
    " where not edge(1, 3)",
    'r(n:int; s:string)\n[ (1 (R), n:s # red) | (0 (B), 1, 1, "e") ] =>'
    ' [ (1, n * 2 + indeg(1) # any) (2 (R), s."t") | (0 (B), 1, 1, "e") ]'
    " where n >= 0 and (s = \"a\" or int(n))",
]
HOSTS = [corpus.load_fixture(f) for e in corpus.ENTRIES.values() for f, _ in e.fixtures]
# Hosts with every kind of atom, marks, roots, comments and odd blanks;
# the lexable ones are also mutated with words that add comments and
# form feeds.
LEXABLE_HOSTS = [
    '[ (0 (R), "a b":-3 # grey) // the first node\n  (1, -2147483648:"c" # red)\n'
    '  (2, empty # none) (3 (R), 2147483647:"":0)\n|\n'
    '  (0, 0, 1, 7 # dashed) (1, 1, 2, "e":-1 # blue)\r\n  (2, 3, 3, empty)\n]\n',
    '[\t(5, "x")\t(9 (R), -0)\t|\t(4, 9, 5, 1 # green)\t]',
]
RICH_HOSTS = LEXABLE_HOSTS + [
    "[ (0, 1)\f(1, 2) | (0, 0, 1, empty) ]",
    "[ (0, 1)\n  (1, 2)\n|\n  (0, 0, 1, empty)\f]",
]
HOST_WORDS = PARSER_WORDS + ["\f", "// note\n", '"a:b"', '"\a"', "-5", "(R)", "# grey",
                            "# dashed", "9223372036854775808"]

R = "\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]"
DEEP = (
    lambda n: "Main = " + "(" * n + "r" + ")" * n + R,
    lambda n: "Main = r" + R + " where " + "not " * n + "x = x",
    lambda n: "Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, " + "-" * n + "n) | ]",
    lambda n: "Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, " + "n+" * n + "n) | ]",
    lambda n: "Main = r\nr(n:int)\n[ (1, " + "n:" * n + "n) | ] => [ (1, n) | ]",
    lambda n: "Main = r" + "!" * n + R,
    lambda n: "Main = " + "if r then " * n + "skip" + R,
    lambda n: "Main = " + "(r; " * n + "r" + ")" * n + R,
    lambda n: "\n".join(f"P{i} = P{i + 1}" for i in range(n)) + f"\nP{n} = r\nMain = P0" + R,
)


def _tokens(text):
    """The tokens of ``text`` up to and including EOF."""
    ts = _Stream(text)
    while ts.peek().kind != "EOF":
        yield ts.next()
    yield ts.peek()


def _token_text(tok):
    return f'"{tok.value}"' if tok.kind == "STRING" else str(tok.value)


@st.composite
def mutated(draw, texts, words=PARSER_WORDS):
    """One of ``texts`` with up to three tokens deleted, duplicated or
    replaced by one of ``words``; line breaks are kept."""
    tokens = [(t.line, _token_text(t)) for t in _tokens(draw(st.sampled_from(texts)))][:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = (tokens[i][0], draw(st.sampled_from(words)))
    lines: dict[int, list[str]] = {}
    for line, text in tokens:
        lines.setdefault(line, []).append(text)
    return "\n".join(map(" ".join, lines.values()))


def word_strings(words=PARSER_WORDS):
    return st.lists(st.sampled_from(words), max_size=30).map(" ".join)


token_strings = word_strings()
deep_programs = st.builds(lambda make, n: make(n), st.sampled_from(DEEP),
                          st.integers(1, 3000))
programs = st.one_of(token_strings, mutated(PROGRAMS), deep_programs)


@settings(FUZZ, max_examples=300)
@given(st.one_of(word_strings(WORDS), st.sampled_from(PROGRAMS + RULES + HOSTS),
                 mutated(PROGRAMS, WORDS), mutated(RULES, WORDS), mutated(HOSTS, WORDS)))
def test_token_positions_point_at_their_text(text):
    starts = [0]
    starts += [i + 1 for i, c in enumerate(text) if c == "\n"]
    for tok in _tokens(text):
        at = starts[tok.line - 1] + tok.column - 1
        if tok.kind == "EOF":
            assert at == len(text)
        elif tok.kind == "INT":
            assert int(re.match(r"[0-9]+", text[at:])[0]) == tok.value
        else:
            assert text.startswith(_token_text(tok), at)


def _accepts_or_rejects(parse, text):
    try:
        parse(text)
    except SourceError:
        pass


@settings(FUZZ, max_examples=300)
@given(programs)
@example(f"Main = r\nr()\n[ (1, {LONG_INT}) | ] => [ (1, 0) | ]")
def test_program_parser_raises_only_source_errors(text):
    _accepts_or_rejects(parse_program, text)


@settings(FUZZ, max_examples=150)
@given(st.one_of(token_strings, mutated(RULES)))
def test_rule_parser_raises_only_source_errors(text):
    _accepts_or_rejects(parse_rule, text)


@settings(FUZZ, max_examples=150)
@given(st.one_of(token_strings, mutated(HOSTS)))
def test_host_parser_raises_only_source_errors(text):
    _accepts_or_rejects(parse_host_graph, text)


def _outcome(parse, text):
    """The printed graph ``parse`` reads from ``text``, or its error."""
    try:
        return print_graph(parse(text))
    except SourceError as exc:
        return exc.kind, exc.line, exc.column, exc.message


@settings(FUZZ, max_examples=400)
@given(st.one_of(st.sampled_from(HOSTS + RICH_HOSTS), mutated(HOSTS),
                 mutated(LEXABLE_HOSTS, HOST_WORDS)))
@example("[ (0, 1) | ] ]")
@example('[ (0, 1) | (0, 0, 0, "\a") ]')
@example("[ (9223372036854775808, empty) | ]")
@example(f"[ (0, empty) | ({LONG_INT}, 0, 0, empty) ]")
def test_host_reader_agrees_with_the_token_reader(text):
    by_tokens = _outcome(lambda t: _read_host_tokens(_Stream(t)), text)
    assert _outcome(parse_host_graph, text) == by_tokens


class _Diverged(BaseException):
    """A run outlived its time limit; GP 2 programs need not terminate."""


def _cli(argv, seconds=0.5):
    def expire(signum, frame):
        raise _Diverged

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except _Diverged:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(FUZZ, max_examples=60)
@given(program=programs, host=st.one_of(st.sampled_from(HOSTS), mutated(HOSTS)),
       flags=st.sampled_from(([], ["-n"], ["-q", "-m"])))
@example(program=f"Main = r\nr()\n[ (1, {LONG_INT}) | ] => [ (1, 0) | ]",
         host=f"[ ({LONG_INT}, empty) | ]", flags=[])
def test_cli_exit_codes(tmp_path_factory, program, host, flags):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "p.gp2").write_text(program)
    (d / "h.host").write_text(host)
    assert _cli(["-p", str(d / "p.gp2")]) in (0, 1)
    assert _cli(["-h", str(d / "h.host")]) in (0, 1)
    assert _cli(["-r", str(d / "p.gp2")]) in (0, 1)
    assert _cli([*flags, str(d / "p.gp2"), str(d / "h.host")]) in (0, 1, 2, None)


def test_deep_nesting_is_a_validation_error_in_both_modes(tmp_path):
    host = tmp_path / "h.host"
    host.write_text("[ (0, 1) | ]")
    deep = [
        "Main = " + "(" * 3000 + "r" + ")" * 3000 + R,
        "Main = r" + R + " where " + "not " * 3000 + "x = x",
        "Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, " + "-" * 3000 + "n) | ]",
        "Main = r" + "!" * 3000 + R,
        "Main = " + "if r then " * 600 + "skip" + R,
    ]
    for text in deep:
        prog = tmp_path / "p.gp2"
        prog.write_text(text)
        assert _cli(["-p", str(prog)]) == 1
        assert _cli([str(prog), str(host)]) == 1
