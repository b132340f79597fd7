import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gp2
from gp2 import corpus
from gp2.cli import UsageError, main, parse_args


def test_parse_validate_modes():
    assert parse_args(["-p", "prog.gp2"]).subcommand == "validate-program"
    assert parse_args(["-r", "rule.gp2"]).subcommand == "validate-rule"
    assert parse_args(["-h", "graph.host"]).subcommand == "validate-graph"


def test_parse_run_flags():
    inv = parse_args(["-n", "-m", "prog", "host"])
    assert inv.subcommand == "run"
    assert inv.config.backend == "index_scan"
    assert inv.config.root_mode == "reflect"
    assert inv.paths == ["prog", "host"]

    inv = parse_args(["-f", "-g", "-q", "prog", "host"])
    assert inv.fast_shutdown and inv.config.minimal_gc
    assert not inv.config.optimize_plans


def test_minimal_gc_requires_fast_shutdown(capsys):
    with pytest.raises(UsageError, match="minimal garbage collection requires fast shutdown"):
        parse_args(["-g", "prog", "host"])
    assert main(["-g", "prog", "host"]) == 1
    assert capsys.readouterr().err == \
        "usage error: minimal garbage collection requires fast shutdown\n"


def test_unknown_flag_and_arity_errors():
    with pytest.raises(UsageError):
        parse_args(["-z", "prog", "host"])
    with pytest.raises(UsageError):
        parse_args(["prog"])
    with pytest.raises(UsageError):
        parse_args([])
    with pytest.raises(UsageError):
        parse_args(["-p"])


def test_bench_subcommand_parse():
    inv = parse_args(["bench", "is_discrete", "discrete:4"])
    assert inv.subcommand == "bench" and inv.paths == ["is_discrete", "discrete:4"]
    inv = parse_args(["bench", "is_discrete", "discrete:4", "-o", "out.json"])
    assert inv.out_dir == "out.json"
    inv = parse_args(["bench", "-o", "out.json", "is_discrete", "discrete:4"])
    assert inv.out_dir == "out.json" and inv.paths == ["is_discrete", "discrete:4"]
    with pytest.raises(UsageError, match="-o needs a file argument"):
        parse_args(["bench", "is_discrete", "discrete:4", "-o"])


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_exit_code_zero_on_success(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", corpus.load_program("is_discrete"))
    host = _write(tmp_path, "h.host", "[ (0, empty) | ]")
    assert main([prog, host]) == 0
    assert capsys.readouterr().out.strip() == "[ | ]"


def test_exit_code_one_on_invalid_program(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", "Main = ")
    host = _write(tmp_path, "h.host", "[ | ]")
    assert main([prog, host]) == 1
    assert "syntax" in capsys.readouterr().err


def test_exit_code_two_on_failing_program(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", corpus.load_program("is_discrete"))
    host = _write(tmp_path, "h.host", "[ (0, empty) (1, empty) | (0, 0, 1, empty) ]")
    assert main([prog, host]) == 2
    assert capsys.readouterr().err


def test_exit_code_two_on_bad_host_graph(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ (0, empty) (0, empty) | ]")
    assert main([prog, host]) == 2
    capsys.readouterr()


def test_validate_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.gp2", corpus.load_program("is_tree"))
    assert main(["-p", good]) == 0
    bad = _write(tmp_path, "bad.gp2", "Main = nothere")
    assert main(["-p", bad]) == 1
    graph = _write(tmp_path, "g.host", "[ (0, empty) | ]")
    assert main(["-h", graph]) == 0
    badgraph = _write(tmp_path, "b.host", "[ (0, empty) | (0, 0, 9, empty) ]")
    assert main(["-h", badgraph]) == 1
    rule = _write(tmp_path, "r.gp2", "r(x:list)\n[ (1, x) | ] => [ | ]")
    assert main(["-r", rule]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [lambda f: ["-p", f], lambda f: ["bench", f, "discrete:4"]],
                         ids=["validate", "bench"])
def test_missing_file_is_usage_error(tmp_path, capsys, argv):
    assert main(argv(str(tmp_path / "absent"))) == 1
    assert capsys.readouterr().err.startswith("usage error: cannot read ")


def test_output_dir(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ (0, 5) | ]")
    outdir = tmp_path / "out"
    assert main(["-o", str(outdir), prog, host]) == 0
    assert (outdir / "out.host").read_text().strip() == "[ (0, 5) | ]"
    capsys.readouterr()


def test_output_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ (0, 5) | ]")
    taken = _write(tmp_path, "taken", "")
    assert main([prog, host, "-o", taken]) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {taken}: File exists\n"


def test_bench_output_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["bench", "is_discrete", "discrete:4", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"usage error: cannot write {tmp_path}: Is a directory\n"


def test_bench_cli_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    assert main(["bench", "is_discrete", "discrete:40", "discrete:80",
                 "-o", str(out_file)]) == 0
    rows = json.loads(out_file.read_text())
    assert [(r["spec"], r["backend"]) for r in rows] == [
        ("discrete:40", "chain"), ("discrete:40", "index_scan"),
        ("discrete:80", "chain"), ("discrete:80", "index_scan")]
    for r in rows:
        assert r["mode"] == "preserve" and r["reps"] == len(r["all_ms"]) == 3
        assert r["outcome"] == "success" and r["spec"] == f"discrete:{r['nodes']}"
    assert capsys.readouterr().out == ""


def test_bench_cli_bad_config(capsys):
    assert main(["bench", "is_discrete"]) == 1
    assert capsys.readouterr().err == \
        "usage error: bench takes a program and at least one generator spec\n"


@pytest.mark.parametrize("mode", ["-p", "-r", "-h", "run-program", "run-host", "bench"])
def test_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, mode):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"[ (0, \xff) | ]")
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ | ]")
    argv = {"-p": ["-p", str(bad)], "-r": ["-r", str(bad)], "-h": ["-h", str(bad)],
            "run-program": [str(bad), host], "run-host": [prog, str(bad)],
            "bench": ["bench", str(bad), "discrete:4"]}[mode]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read {bad}: ") and err.count("\n") == 1


def test_five_thousand_digit_literal_is_a_lex_error(tmp_path, capsys):
    host = _write(tmp_path, "h.host", f"[ ({'9' * 5000}, empty) | ]")
    assert main(["-h", host]) == 1
    assert capsys.readouterr().err == "lex error at 1:4: integer literal too long\n"


@pytest.mark.parametrize("spec", ["tree:40", "sierpinski:100000000"])
def test_bench_spec_too_large_is_a_config_error(capsys, spec):
    assert main(["bench", "is_discrete", spec]) == 1
    assert capsys.readouterr().err == \
        "bad bench configuration: refusing to generate more than 50000000 nodes\n"


def test_bench_checks_specs_before_reading_the_program(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "absent"), "discrete:4", "blob:3"]) == 1
    assert capsys.readouterr().err == "bad bench configuration: unknown graph kind 'blob'\n"


def test_bench_evaluation_error_is_a_program_error(tmp_path, capsys):
    prog = _write(tmp_path, "p.gp2", "Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, 1 / 0) | ]")
    assert main(["bench", prog, "discrete:3"]) == 2
    assert capsys.readouterr().err == "in rule 'r': division by zero\n"


def test_help(capsys):
    assert main(["--help"]) == 0
    assert "gp2" in capsys.readouterr().out


@pytest.mark.parametrize("host_text", ["[ (², empty) | ]", "[ (١, empty) | ]"])
def test_non_ascii_digit_in_host_is_an_error_not_a_traceback(tmp_path, capsys, host_text):
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", host_text)
    assert main(["-h", host]) == 1
    assert main([prog, host]) == 2
    assert "lex error" in capsys.readouterr().err


def _full_device():
    return open("/dev/full", "w"), errno.ENOSPC


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w"), errno.EPIPE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("sink", [_full_device, _closed_pipe], ids=["full", "closed-pipe"])
@pytest.mark.parametrize("mode", ["run", "run-f", "bench", "help"])
def test_stdout_write_error_is_a_usage_error(tmp_path, sink, mode):
    # a 2,000-node graph overflows the output buffer, a help text does not
    host = "[ " + " ".join(f"({i}, {i})" for i in range(2000)) + " | ]"
    run = [_write(tmp_path, "p.gp2", "Main = skip"), _write(tmp_path, "h.host", host)]
    argv = {"run": run, "run-f": ["-f", *run], "bench": ["bench", "is_discrete", "discrete:4"],
            "help": ["--help"]}
    src = Path(gp2.__file__).resolve().parent.parent
    stdout, code = sink()
    with stdout:
        result = subprocess.run(
            [sys.executable, "-c", "from gp2.cli import entry; entry()", *argv[mode]],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 1
    assert result.stderr == f"usage error: cannot write standard output: {os.strerror(code)}\n"
