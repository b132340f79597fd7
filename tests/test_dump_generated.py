"""Smoke test of ``tools/dump_generated.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gp2 import corpus
from gp2.textio import parse_program

ROOT = Path(__file__).resolve().parents[1]


def test_it_prints_every_corpus_main_and_step_in_all_8_settings():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "dump_generated.py")],
                         check=True, capture_output=True, text=True, env=env).stdout
    dumped = json.loads(out)
    assert len(dumped) == 80
    for key, generated in dumped.items():
        program = key.split()[0]
        assert generated["main"].startswith("def make(") and "    def main(g, stack):\n" in \
            generated["main"], key
        rules = parse_program(corpus.load_program(program)).rules
        assert sorted(generated["steps"]) == sorted(rules), key
        assert all(source.strip() for source in generated["steps"].values()), key
    assert out == subprocess.run([sys.executable, str(ROOT / "tools" / "dump_generated.py")],
                                 check=True, capture_output=True, text=True, env=env).stdout
