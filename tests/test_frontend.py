"""Pinned front-end behaviour.

Each row is one input and what the front end makes of it: accepted
(``None``) or the first error as (kind, line, column, message).  The
rows cover every check of the rule validator, of procedure inlining
(unknown names, non-rules in rule sets, recursion, misplaced break) and
of the root/bidirectional markers and marks in host and rule graphs.
The fast-rule verdicts of every corpus rule, and of a few rules that
exercise the other clauses, are pinned as well.
"""

import pytest

from gp2 import corpus
from gp2.cli import main
from gp2.engine import run_program
from gp2.match import check_fast_rule
from gp2.textio import SourceError, parse_host_graph, parse_program, parse_rule

PARSERS = {"program": parse_program, "rule": parse_rule, "graph": parse_host_graph}

FRONT_END_CASES = [
    ('program', 'Main = nothere',
     ('semantic', 1, 8, "call of undeclared name 'nothere'")),
    ('program', 'Main = {r, s}\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]',
     ('semantic', 1, 9, "unknown rule 's' in rule-set call")),
    ('program', 'P = r\nMain = {P}\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]',
     ('semantic', 2, 9, "unknown rule 'P' in rule-set call")),
    ('program', 'P = P\nMain = P',
     ('semantic', 1, 5, "recursive procedure 'P'")),
    ('program', 'P = Q\nQ = P\nMain = skip',
     ('semantic', 2, 5, "recursive procedure 'P'")),
    ('program', 'Main = break',
     ('semantic', 1, 8, 'break outside of any loop')),
    ('program', 'P = break\nMain = P',
     ('semantic', 1, 5, 'break outside of any loop')),
    ('program', 'Main = skip;\n  break',
     ('semantic', 2, 3, 'break outside of any loop')),
    ('program', 'P = break\nMain = P!',
     None),
    ('program', 'P = break\nMain = skip',
     None),
    ('program', 'Main = skip\nMain = skip',
     ('semantic', 2, 1, 'repeated Main declaration')),
    ('program', 'P = skip',
     ('semantic', 1, 9, 'program has no Main declaration')),
    ('program', 'if = skip\nMain = skip',
     ('semantic', 1, 1, "'if' cannot be a declaration name")),
    ('program', 'P = skip\nP = skip\nMain = skip',
     ('semantic', 2, 1, "'P' declared twice")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]',
     ('semantic', 4, 1, "'r' declared twice")),
    ('program', 'P = Q\nQ = P\nR = nothere\nMain = skip',
     ('semantic', 3, 5, "call of undeclared name 'nothere'")),
    ('program', 'Main = break; P\nP = Q\nQ = P',
     ('semantic', 3, 5, "recursive procedure 'P'")),
    ('program', 'Main = r\nr(x, x:list)\n[ (1, x) | ] => [ (1, x) | ]',
     ('semantic', 2, 6, "variable 'x' declared twice")),
    ('program', 'Main = r\nr(x:foo)\n[ (1, x) | ] => [ (1, x) | ]',
     ('semantic', 2, 5, "unknown variable type 'foo'")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) (1, x) | ] => [ (1, x) | ]',
     ('semantic', 3, 11, 'node 1 declared twice')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | (0, 1, 1, x) (0, 1, 1, x) ] => [ (1, x) | ]',
     ('semantic', 3, 26, 'edge 0 declared twice')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | (0, 1, 2, empty) ] => [ (1, x) | ]',
     ('semantic', 3, 19, 'edge endpoint 2 is not a node on this side')),
    ('program', 'Main = r\nr(x:list)\n[ (1, y) | ] => [ (1, x) | ]',
     ('semantic', 3, 7, "undeclared variable 'y'")),
    ('program', 'Main = r\nr(n:int)\n[ (1, n+1) | ] => [ (1, n) | ]',
     ('semantic', 3, 7, 'left-hand labels may only contain constants and variables')),
    ('program', 'Main = r\nr(x,y:list)\n[ (1, x:y) | ] => [ (1, x) | ]',
     ('semantic', 3, 7, 'at most one list variable per label')),
    ('program', 'Main = r\nr(x:list)\n[ (1 (X), x) | ] => [ (1, x) | ]',
     ('syntax', 3, 7, 'expected root marker (R)')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | (0 (R), 1, 1, empty) ] => [ (1, x) | ]',
     ('syntax', 3, 16, 'expected bidirectional marker (B)')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x # purple) | ] => [ (1, x) | ]',
     ('semantic', 3, 11, "unknown mark 'purple'")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x # dashed) | ] => [ (1, x) | ]',
     ('semantic', 3, 7, "'dashed' is not a node mark")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | (0, 1, 1, empty # grey) ] => [ (1, x) | ]',
     ('semantic', 3, 22, "'grey' is not an edge mark")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) (2, empty # any) | ]',
     ('semantic', 2, 1, 'wildcard mark on a created node has nothing to inherit from')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | (0, 1, 1, empty # any) ]',
     ('semantic', 2, 1, 'wildcard mark on a created edge has nothing to inherit from')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | (0 (B), 1, 1, empty) ]',
     ('semantic', 2, 1, 'bidirectional right-hand edge needs a matching bidirectional left-hand edge')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, y) | ]',
     ('semantic', 2, 1, "undeclared variable 'y'")),
    ('program', 'Main = r\nr(x:list; s:string)\n[ (1, x) | ] => [ (1, x.s) | ]',
     ('semantic', 2, 1, "'.' requires string operands")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, -x) | ]',
     ('semantic', 2, 1, "unary '-' requires an integer operand")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x+1) | ]',
     ('semantic', 2, 1, 'arithmetic requires integer operands')),
    ('program', 'Main = r\nr(x,y:list)\n[ (1, x) | ] => [ (1, y) | ]',
     ('semantic', 2, 1, "right-hand side uses unbound variables: ['y']")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ] where y = 1',
     ('semantic', 2, 1, "undeclared variable 'y' in condition")),
    ('program', 'Main = r\nr(x:list; n:int)\n[ (1, x) | ] => [ (1, x) | ] where n > 0',
     ('semantic', 2, 1, "condition uses unbound variables: ['n']")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ] where edge(1, 3)',
     ('semantic', 2, 1, 'condition refers to node 3, which is not in the left-hand side')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ] where indeg(2) > 0',
     ('semantic', 2, 1, 'condition refers to node 2, which is not in the left-hand side')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ] where x < 1',
     ('semantic', 2, 1, 'ordering comparison requires integers, got list')),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, outdeg(4)) | ]',
     ('semantic', 2, 1, 'degree operator refers to node 4, which is not in the left-hand side')),
    ('program', 'Main = r\nr(x:list; n:int)\n[ (1, x) | ] => [ (1, x) | ] where not edge(1, 1, y) and n = 2',
     ('semantic', 2, 1, "undeclared variable 'y' in condition")),
    ('program', 'Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ] where edge(1, 2) or indeg(3) = 0',
     ('semantic', 2, 1, 'condition refers to node 2, which is not in the left-hand side')),
    ('rule', 'r(x:list)\n[ (1, x) | ] => [ (1, x) | ]',
     None),
    ('rule', 'r(x:list)\n[ (1, x) | ] => [ (1, x) | ] trailing',
     ('syntax', 2, 30, "unexpected 'trailing' after rule")),
    ('rule', 'r(x:list)\n[ (1, x) | ] => [ (1, x) | ] where int(x) and x = 1',
     None),
    ('graph', '[ (0 (X), empty) | ]',
     ('syntax', 1, 7, 'expected root marker (R)')),
    ('graph', '[ (0, 1 # dashed) | ]',
     ('semantic', 1, 11, "'dashed' is not a valid mark here")),
    ('graph', '[ (0, 1) | (0, 0, 0, 1 # grey) ]',
     ('semantic', 1, 26, "'grey' is not a valid mark here")),
    ('graph', '[ (0 (R), 1 # grey) | (0, 0, 0, 1 # dashed) ]',
     None),
    ('graph', '[ (-1, empty) | ]',
     ('semantic', 1, 4, 'node ids must be non-negative integers')),
    ('graph', '[ (0, empty)\n  (0, empty) | ]',
     ('semantic', 2, 4, 'duplicate node id: 0')),
    ('graph', '[ (0, empty) | (0, 0, 7, empty) ]',
     ('semantic', 1, 23, 'edge refers to unknown node 7')),
]


def _negated(depth):
    """A program whose one rule relabels with a label nested ``depth``
    tuples deep: unary minuses around a variable."""
    return ("Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, " + "-" * (depth - 1) +
            "n) | ]")


def _summed(depth):
    """As _negated, for a condition: a sum of ``depth - 1`` terms
    compared with 0."""
    return ("Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, n) | ] where " +
            "+".join(["n"] * (depth - 1)) + " > 0")


# Labels and conditions nested deeper than evaluation can follow are
# rejected by the validator.
FRONT_END_CASES += [
    pytest.param('program', _negated(600),
                 ('semantic', 2, 1, 'label or condition nested deeper than 256 levels'),
                 id='label-600-deep'),
    pytest.param('program', _summed(600),
                 ('semantic', 2, 1, 'label or condition nested deeper than 256 levels'),
                 id='condition-600-deep'),
    pytest.param('program', _negated(257),
                 ('semantic', 2, 1, 'label or condition nested deeper than 256 levels'),
                 id='label-257-deep'),
    pytest.param('program', _negated(256), None, id='label-256-deep'),
    pytest.param('program', _negated(200), None, id='label-200-deep'),
    pytest.param('program', _summed(200), None, id='condition-200-deep'),
]


# Integer literals are 32-bit in rules and hosts alike: a minus directly
# before a literal is part of it, so -2147483648 fits.
_TOO_BIG = 'integer does not fit 32 bits'
FRONT_END_CASES += [
    pytest.param('graph', '[ (0, -2147483648) | ]', None, id='host-int-min'),
    pytest.param('graph', '[ (0, -2147483649) | ]', ('semantic', 1, 7, _TOO_BIG),
                 id='host-below-int-min'),
    pytest.param('graph', '[ (0, 2147483648) | ]', ('semantic', 1, 7, _TOO_BIG),
                 id='host-above-int-max'),
    pytest.param('rule', 'r()\n[ (1, -2147483648) | ] => [ (1, 0) | ]', None,
                 id='rule-int-min'),
    pytest.param('rule', 'r()\n[ (1, -2147483649) | ] => [ (1, 0) | ]',
                 ('semantic', 2, 7, _TOO_BIG), id='rule-below-int-min'),
    pytest.param('rule', 'r()\n[ (1, 2147483648) | ] => [ (1, 0) | ]',
                 ('semantic', 2, 7, _TOO_BIG), id='rule-above-int-max'),
    pytest.param('rule', 'r(n:int)\n[ (1, n) | ] => [ (1, n) | ] where n > -2147483648',
                 None, id='condition-int-min'),
    pytest.param('rule', 'r(n:int)\n[ (1, n) | ] => [ (1, n) | ] where n > -2147483649',
                 ('semantic', 2, 40, _TOO_BIG), id='condition-below-int-min'),
]


# Errors come in reading order: a lex error is raised when reading
# reaches it, after any syntax or semantic error before it.  A string's
# lex error sits at its opening quote.
FRONT_END_CASES += [
    pytest.param('graph', '[ (0 1) | ] ²', ('syntax', 1, 6, "expected ',', found 1"),
                 id='syntax-before-lex'),
    pytest.param('program', 'Main = skip\nMain = skip\nP = skip ²',
                 ('semantic', 2, 1, 'repeated Main declaration'), id='semantic-before-lex'),
    pytest.param('program', 'P = skip // c',
                 ('semantic', 1, 14, 'program has no Main declaration'),
                 id='end-after-trailing-comment'),
    pytest.param('graph', '[ (0, "a\tb") | ]',
                 ('lex', 1, 7, 'bad character in string literal'), id='string-tab'),
    pytest.param('graph', '[ (0, "ab\n") | ]',
                 ('lex', 1, 7, 'bad character in string literal'), id='string-line-break'),
    pytest.param('graph', '[ (0, "ab', ('lex', 1, 7, 'unterminated string literal'),
                 id='string-unterminated'),
    pytest.param('graph', '[ (0, "é") | ]', None, id='string-non-ascii'),
]


# A host item is checked as it is read, so a host's first error is the
# first in reading order too.
FRONT_END_CASES += [
    pytest.param('graph', '[ (0, empty) | (0, 0, 7, empty) (1, 0, 8, empty) ]',
                 ('semantic', 1, 23, 'edge refers to unknown node 7'),
                 id='host-first-unknown-endpoint'),
    pytest.param('graph', '[ (0, empty) (0, empty) (1 x) | ]',
                 ('semantic', 1, 15, 'duplicate node id: 0'), id='host-duplicate-before-syntax'),
    pytest.param('graph', '[ (0, empty) | (0, 0, 7, empty) (1 x) ]',
                 ('semantic', 1, 23, 'edge refers to unknown node 7'),
                 id='host-unknown-endpoint-before-syntax'),
    pytest.param('graph', '[ (9223372036854775808, empty) (1 x) | ]',
                 ('semantic', 1, 4, 'node id out of range: 9223372036854775808'),
                 id='host-id-range-before-syntax'),
]


# An integer literal of more than 4,300 digits is a lex error at its
# first digit, wherever it stands; one of 4,300 digits is read as usual.
_LONG = "9" * 5000
_TOO_LONG = 'integer literal too long'
FRONT_END_CASES += [
    pytest.param('graph', f'[ ({_LONG}, empty) | ]', ('lex', 1, 4, _TOO_LONG),
                 id='long-host-node-id'),
    pytest.param('graph', f'[ (0, {_LONG}) | ]', ('lex', 1, 7, _TOO_LONG),
                 id='long-host-label'),
    pytest.param('graph', f'[ (0, empty) | (0, 0, {_LONG}, empty) ]', ('lex', 1, 23, _TOO_LONG),
                 id='long-host-edge-endpoint'),
    pytest.param('rule', f'r()\n[ (1, {_LONG}) | ] => [ (1, 0) | ]', ('lex', 2, 7, _TOO_LONG),
                 id='long-rule-label'),
    pytest.param('rule', f'r()\n[ ({_LONG}, 0) | ] => [ (1, 0) | ]', ('lex', 2, 4, _TOO_LONG),
                 id='long-rule-node-id'),
    pytest.param('graph', f'[ ({"9" * 4300}, empty) | ]',
                 ('semantic', 1, 4, f'node id out of range: {"9" * 4300}'),
                 id='host-node-id-of-4300-digits'),
]


# A keyword cannot be a variable name: where the variable stands, it
# reads as the keyword (``empty`` as the empty list).
FRONT_END_CASES += [
    pytest.param('program', 'Main = r\nr(empty:list)\n[ (1, empty) | ] => [ (1, empty) | ]',
                 ('semantic', 2, 3, "'empty' cannot be a variable name"),
                 id='variable-named-empty'),
    pytest.param('rule', 'r(int:int)\n[ (1, int) | ] => [ (1, int) | ] where int = 1',
                 ('semantic', 1, 3, "'int' cannot be a variable name"), id='variable-named-int'),
    pytest.param('rule', 'r(x:list; not:int)\n[ (1, not) | ] => [ (1, not) | ]',
                 ('semantic', 1, 11, "'not' cannot be a variable name"), id='variable-named-not'),
    pytest.param('rule', 'r(x, edge:list)\n[ (1, x) (2, edge) | ] => [ (1, x) (2, edge) | ]',
                 ('semantic', 1, 6, "'edge' cannot be a variable name"),
                 id='variable-named-edge'),
    # so a type name that opens a condition atom opens a type check
    pytest.param('program', 'r(x:int) [ (1, x) | ] => [ (1, x) | ] where int = 1\nMain = r\n',
                 ('syntax', 1, 49, "expected '(', found '='"), id='type-name-without-check'),
]


# Commands missing their keyword, or with one where a command belongs.
_R = '\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]'
FRONT_END_CASES += [
    pytest.param('program', 'Main = if r skip' + _R, ('syntax', 1, 13, "expected 'then'"),
                 id='if-without-then'),
    pytest.param('program', 'Main = r; then' + _R,
                 ('syntax', 1, 11, "expected a command, found 'then'"), id='then-as-command'),
]


def test_the_least_integer_matches_in_a_rule():
    out = run_program("Main = r\nr()\n"
                      "[ (1, -2147483648) | ] => [ (1, - -2147483648 # red) | ]",
                      "[ (0, -2147483648) | ]")
    assert out.status == "success", out.diagnostic
    # negating it wraps round, folded at parse time as in evaluation
    assert out.output == "[ (0, -2147483648 # red) | ]"


@pytest.mark.parametrize("kind, text, expected", FRONT_END_CASES)
def test_front_end_verdicts_are_pinned(kind, text, expected):
    try:
        PARSERS[kind](text)
    except SourceError as err:
        got = (err.kind, err.line, err.column, err.message)
    else:
        got = None
    assert got == expected


CORPUS_FAST_RULE_VERDICTS = {
    ('is_discrete', 'del'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_discrete', 'node'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_bin_dag', 'init'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_bin_dag', 'up'): (True, []),
    ('is_bin_dag', 'del0'): (True, []),
    ('is_bin_dag', 'del1'): (True, []),
    ('is_bin_dag', 'del1_d'): (True, []),
    ('is_bin_dag', 'del21'): (True, []),
    ('is_bin_dag', 'del21_d'): (True, []),
    ('is_bin_dag', 'del22'): (True, []),
    ('is_bin_dag', 'del22_d'): (True, []),
    ('is_bin_dag', 'set_flag'): (True, []),
    ('is_bin_dag', 'flag'): (True, []),
    ('is_tree', 'init'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_tree', 'prune0'): (True, []),
    ('is_tree', 'prune1'): (True, []),
    ('is_tree', 'push'): (True, []),
    ('is_tree', 'unmark'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_tree', 'has_loop'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_tree', 'two_nodes'): (False, ['left-hand nodes not undirectedly reachable from a root: [1, 2]']),
    ('is_series_par', 'par'): (False, ['left-hand nodes not undirectedly reachable from a root: [1, 2]']),
    ('is_series_par', 'seq'): (False, ['left-hand nodes not undirectedly reachable from a root: [1, 2, 3]']),
    ('is_series_par', 'del'): (False, ['left-hand nodes not undirectedly reachable from a root: [1, 2]']),
    ('is_series_par', 'node'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_con', 'init'): (False, ['left-hand nodes not undirectedly reachable from a root: [1]']),
    ('is_con', 'fwd'): (True, []),
    ('is_con', 'bck'): (True, []),
    ('is_con', 'match'): (False, ['left-hand nodes not undirectedly reachable from a root: [2]']),
    ('trans_closure', 'link'): (False, ['left-hand nodes not undirectedly reachable from a root: [1, 2, 3]', 'condition uses the edge predicate']),
    ('gen_discrete', 'init'): (True, []),
    ('gen_discrete', 'gen'): (True, []),
    ('gen_discrete', 'del'): (True, []),
    ('gen_discrete', 'finish'): (True, []),
    ('gen_tree', 'init'): (True, []),
    ('gen_tree', 'gen'): (True, []),
    ('gen_tree', 'ret'): (True, []),
    ('gen_tree', 'step'): (True, []),
    ('gen_tree', 'finish'): (True, []),
    ('gen_star', 'gen1'): (True, []),
    ('gen_star', 'gen2'): (True, []),
    ('gen_star', 'fin1'): (True, []),
    ('gen_star', 'fin2'): (True, []),
    ('gen_sierpinski', 'init'): (True, []),
    ('gen_sierpinski', 'inc'): (True, []),
    ('gen_sierpinski', 'expand'): (False, ['left-hand nodes not undirectedly reachable from a root: [2, 3, 4]']),
    ('gen_sierpinski', 'cleanup'): (True, []),
}


def test_corpus_fast_rule_verdicts_are_pinned():
    got = {}
    for name in corpus.PROGRAM_NAMES:
        for rule_name, rule in parse_program(corpus.load_program(name)).rules.items():
            got[name, rule_name] = check_fast_rule(rule)
    assert got == CORPUS_FAST_RULE_VERDICTS


OTHER_FAST_RULE_VERDICTS = [
    ('r(x:list)\n[ (1 (R), x) (2, x) | (0, 1, 2, empty) ] => [ (1 (R), x:x) | ] where x = x',
     (False, ["list variable 'x' occurs 2 times in the left-hand side", "list variable 'x' occurs 2 times in the right-hand side", 'condition compares list/string/atom variables for (in)equality'])),
    ('r(s:string; a:atom; n:int)\n[ (1 (R), s:a) (2, n) | (0, 1, 2, a) ] => [ (1 (R), s:a:n:n) (2, s) | ] where not edge(1, 2) or s."b" != s',
     (False, ["atom variable 'a' occurs 2 times in the left-hand side", "string variable 's' occurs 2 times in the right-hand side", 'condition uses the edge predicate', 'condition compares list/string/atom variables for (in)equality'])),
    ('r(a:atom; c:char; n:int)\n[ (1 (R), a:c:n) | ] => [ (1 (R), c:c:n) | ] where indeg(1) = n and a = c',
     (True, [])),
    ('r(x:list; n:int)\n[ (1, x:n) (2 (R), n) | ] => [ (1, x) (2 (R), x) | ] where (x = empty) or not (edge(2, 2, n+1) and int(x))',
     (False, ['left-hand nodes not undirectedly reachable from a root: [1]', "list variable 'x' occurs 2 times in the right-hand side", 'condition uses the edge predicate'])),
]


@pytest.mark.parametrize("text, expected", OTHER_FAST_RULE_VERDICTS)
def test_fast_rule_clauses_are_pinned(text, expected):
    assert check_fast_rule(parse_rule(text)) == expected


@pytest.mark.parametrize("depth", [200, 256])
def test_labels_and_conditions_that_validate_also_evaluate(depth):
    out = run_program(_negated(depth), "[ (0, 1) | ]")
    assert out.status == "success", out.diagnostic
    assert out.output == f"[ (0, {(-1) ** (depth - 1)}) | ]"
    out = run_program(_summed(depth), "[ (0, 1) | ]")
    assert out.status == "success", out.diagnostic


_DEEP = 3000
DEEPLY_NESTED = {
    'label': 'Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, ' + '(' * _DEEP + 'n' + ')' * _DEEP
             + ') | ]',
    'not-chain': 'Main = r\nr(n:int)\n[ (1, n) | ] => [ (1, n) | ] where ' + 'not ' * _DEEP
                 + 'n > 0',
    'commands': 'Main = ' + '(' * _DEEP + 'skip' + ')' * _DEEP,
    'if-chain': 'Main = ' + 'if ' * _DEEP + 'skip' + ' then skip' * _DEEP,
}


# Input nested deeper than the parser can recurse is a syntax error, not
# a traceback.  Where reading stopped depends on the caller's stack depth,
# so the position is not pinned.
@pytest.mark.parametrize("shape", DEEPLY_NESTED)
def test_nesting_too_deep_to_parse_is_a_syntax_error(tmp_path, capsys, shape):
    with pytest.raises(SourceError) as info:
        parse_program(DEEPLY_NESTED[shape])
    assert (info.value.kind, info.value.message) == ('syntax', 'nesting too deep')
    program = tmp_path / 'deep.gp2'
    program.write_text(DEEPLY_NESTED[shape])
    assert main(['-p', str(program)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('syntax error at ') and err.endswith(': nesting too deep\n')
    assert err.count('\n') == 1
