"""Pinned outcomes of the bundled programs under every configuration.

``golden_outputs.json`` maps "program fixture backend mode plan" to the
run's status and a short sha1 of its output (on success) or diagnostic.
Regenerate it with ``python tests/test_golden.py`` only when a change
of behaviour is intended.
"""

import hashlib
import itertools
import json
from pathlib import Path

from gp2 import corpus
from gp2.engine import ExecConfig
from helpers import executable

GOLDEN = Path(__file__).with_name("golden_outputs.json")

FIXTURES = {
    "is_discrete": ("discrete_pos", "discrete_neg"),
    "is_bin_dag": ("bin_dag_pos", "bin_dag_neg"),
    "is_tree": ("tree_pos", "tree_neg"),
    "is_series_par": ("series_par_pos", "series_par_neg"),
    "is_con": ("con_pos", "con_neg"),
    "trans_closure": ("path3",),
}
for _name in ("gen_discrete", "gen_tree", "gen_star", "gen_sierpinski"):
    FIXTURES[_name] = ("seed2", "seed3", "seed5")

CONFIGS = list(itertools.product(
    ("chain", "index_scan"), ("preserve", "reflect"), ("opt", "noopt")))


def runs():
    """Every (key, program, fixture, config) of the table; the
    unoptimised gen_sierpinski runs on seed5 take seconds each and are
    left out."""
    for name, fixtures in FIXTURES.items():
        for fixture in fixtures:
            for backend, mode, plan in CONFIGS:
                if (name, fixture, plan) == ("gen_sierpinski", "seed5", "noopt"):
                    continue
                cfg = ExecConfig(backend=backend, root_mode=mode,
                                 optimize_plans=plan == "opt")
                yield f"{name} {fixture} {backend} {mode} {plan}", name, fixture, cfg


def outcome(name, fixture, cfg):
    out = executable(name, cfg).run_text(corpus.load_fixture(fixture))
    text = out.output if out.status == "success" else out.diagnostic
    return [out.status, hashlib.sha1(text.encode()).hexdigest()[:12]]


def compute():
    return {key: outcome(name, fixture, cfg) for key, name, fixture, cfg in runs()}


def test_corpus_outcomes_match_the_golden_table():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert len(got) == 180
    assert got.keys() == golden.keys()
    changed = {k: (golden[k], got[k]) for k in got if got[k] != golden[k]}
    assert not changed, changed


def test_chain_rows_equal_their_index_scan_twins():
    """Both backends visit the live nodes oldest first, so every group
    of the table prints the same bytes on either."""
    golden = json.loads(GOLDEN.read_text())
    chain = [key for key in golden if key.split()[2] == "chain"]
    assert len(chain) == 90
    for key in chain:
        assert golden[key] == golden[key.replace(" chain ", " index_scan ")], key


if __name__ == "__main__":
    table = compute()
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)) + "\n}\n")
