import errno
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import gp2
from gp2 import corpus, textio
from gp2.cli import UsageError, main, parse_args
from gp2.engine import ExecConfig, run_program
from helpers import executable
from test_golden import runs


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
    with pytest.raises(UsageError, match="run mode takes a program file and a host graph file"):
        parse_args(["bench", "is_discrete", "discrete:4"])


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


@pytest.mark.parametrize("mode", ["-p", "-r", "-h", "run-program", "run-host"],
                         ids=["validate", "validate-rule", "validate-graph", "run-program",
                              "run-host"])
def test_missing_file_is_usage_error(tmp_path, capsys, mode):
    absent = str(tmp_path / "absent")
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ | ]")
    argv = {"-p": ["-p", absent], "-r": ["-r", absent], "-h": ["-h", absent],
            "run-program": [absent, host], "run-host": [prog, absent]}[mode]
    assert main(argv) == 1
    assert capsys.readouterr() == \
        ("", f"usage error: cannot read {absent}: No such file or directory\n")


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
    out, err = capsys.readouterr()
    assert err == f"usage error: cannot write {taken}: File exists\n"
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["prog", "host", "-o"], "-o needs a directory argument"),
    ([], "no arguments; see --help"),
    (["-z", "prog", "host"], "unknown flag '-z'"),
    (["prog"], "run mode takes a program file and a host graph file"),
    (["-p"], "-p takes exactly one file"),
    (["bench", "is_discrete", "discrete"], "run mode takes a program file and a host graph file"),
], ids=["run-o-without-directory", "no-arguments", "unknown-flag", "run-with-one-file",
        "validate-without-a-file", "bench-with-a-spec"])
def test_bad_spec_or_option_is_a_one_line_error(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("mode", ["-p", "-r", "-h", "run-program", "run-host"])
def test_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, mode):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"[ (0, \xff) | ]")
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    host = _write(tmp_path, "h.host", "[ | ]")
    argv = {"-p": ["-p", str(bad)], "-r": ["-r", str(bad)], "-h": ["-h", str(bad)],
            "run-program": [str(bad), host], "run-host": [prog, str(bad)]}[mode]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read {bad}: ") and err.count("\n") == 1


def test_five_thousand_digit_literal_is_a_lex_error(tmp_path, capsys):
    host = _write(tmp_path, "h.host", f"[ ({'9' * 5000}, empty) | ]")
    assert main(["-h", host]) == 1
    assert capsys.readouterr().err == "lex error at 1:4: integer literal too long\n"


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


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
SINKS = [pytest.param(_full_device, id="full", marks=_NEEDS_DEV_FULL),
         pytest.param(_closed_pipe, id="closed-pipe")]


def _cli(argv, **kwargs):
    """Run ``python -m gp2.cli`` on ``argv`` in a child process, with no shell."""
    src = Path(gp2.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "gp2.cli", *argv], text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)}, **kwargs)


def _path_host(n):
    """A path of ``n`` nodes: ``2n + 2`` printed items with the brackets and bar."""
    return "[ " + " ".join(f"({i}, {i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("mode", ["run", "run-f", "help"])
def test_stdout_write_error_is_a_usage_error(tmp_path, sink, mode):
    # a graph of 16 pieces overflows the output buffer, a help text does not
    host = _path_host(8 * textio.PRINT_CHUNK - 1)
    run = [_write(tmp_path, "p.gp2", "Main = skip"), _write(tmp_path, "h.host", host)]
    argv = {"run": run, "run-f": ["-f", *run], "help": ["--help"]}
    stdout, code = sink()
    with stdout:
        result = _cli(argv[mode], stdout=stdout, stderr=subprocess.PIPE)
    assert result.returncode == 1
    assert result.stderr == f"usage error: cannot write standard output: {os.strerror(code)}\n"


@pytest.mark.parametrize("sink", SINKS)
def test_stdout_write_error_in_process(monkeypatch, capsys, sink):
    stdout, code = sink()
    with stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["--help"]) == 1
    assert capsys.readouterr().err == \
        f"usage error: cannot write standard output: {os.strerror(code)}\n"


RUN_MEMORY = 400 * 2 ** 20     # the child's address space, in bytes


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (RUN_MEMORY, RUN_MEMORY))


def test_a_run_out_of_memory_is_a_program_error(tmp_path):
    # each application doubles the label, until an allocation fails
    prog = _write(tmp_path, "p.gp2", "Main = r!\nr(x:list) [ (1, x) | ] => [ (1, x:x) | ]")
    host = _write(tmp_path, "h.host", "[ (0, 1) | ]")
    result = _cli([prog, host], capture_output=True, preexec_fn=_cap_memory)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "out of memory while running the program\n"


@pytest.mark.parametrize("mib", [40, 48, 56])
def test_out_of_memory_reading_or_printing_the_graph_is_a_program_error(tmp_path, mib):
    # a 1.5 MB host: on CPython 3.11 (x86-64) a 40 MiB address space runs
    # out while reading it, and 48 or 56 MiB while printing it
    prog = _write(tmp_path, "p.gp2", "Main = skip")
    nodes = " ".join(f"({i}, {i})" for i in range(100000))
    host = _write(tmp_path, "h.host", f"[ {nodes} | ]")
    cap = mib * 2 ** 20
    result = _cli([prog, host], capture_output=True,
                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert result.returncode in (0, 2) and "Traceback" not in result.stderr, result.stderr
    if result.returncode or mib == 40:      # the lowest cap always runs out
        assert (result.returncode, result.stderr.startswith("out of memory")) == (2, True)


@pytest.mark.parametrize("flags", [["-f"], ["-f", "-g"]], ids=["f", "f-g"])
def test_fast_shutdown_prints_the_graph_and_exits_zero(tmp_path, flags):
    prog = _write(tmp_path, "p.gp2", corpus.load_program("trans_closure"))
    host = _write(tmp_path, "h.host", corpus.load_fixture("path3"))
    expected = run_program(corpus.load_program("trans_closure"), corpus.load_fixture("path3"))
    result = _cli([*flags, prog, host], capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.output + "\n", "")


@pytest.mark.parametrize("flags", [["-f"], ["-f", "-g"]], ids=["f", "f-g"])
def test_fast_shutdown_flushes_every_piece_of_the_graph(tmp_path, flags):
    host = "[ (0 (R), 10) | ]"          # gen_tree grows 2,047 nodes: 16 pieces
    expected = run_program(corpus.load_program("gen_tree"), host)
    assert expected.graph.node_count + expected.graph.edge_count > 15 * textio.PRINT_CHUNK
    result = _cli([*flags, _write(tmp_path, "p.gp2", corpus.load_program("gen_tree")),
                   _write(tmp_path, "h.host", host)], capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.output + "\n", "")


def _flags(cfg):
    return ["-n"] * (cfg.backend == "index_scan") + ["-m"] * (cfg.root_mode == "reflect") + \
        ["-q"] * (not cfg.optimize_plans)


def test_stdout_is_the_run_s_output_on_every_golden_run(tmp_path, capsys):
    for key, name, fixture, cfg in runs():
        out = executable(name, cfg).run_text(corpus.load_fixture(fixture))
        code = main([*_flags(cfg), _write(tmp_path, "p.gp2", corpus.load_program(name)),
                     _write(tmp_path, "h.host", corpus.load_fixture(fixture))])
        printed = out.output + "\n" if out.status == "success" else ""
        assert (code, capsys.readouterr().out) == (out.exit_code, printed), key


class _Pieces(io.StringIO):
    """Standard output that notes the length of each write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_a_graph_of_many_pieces_is_streamed_whole_to_stdout_and_out_dir(tmp_path, capsys,
                                                                        monkeypatch, backend):
    host = "[ (0 (R), 12) | ]"         # gen_tree grows an 8,191-node tree
    expected = run_program(corpus.load_program("gen_tree"), host, ExecConfig(backend=backend))
    assert expected.graph.node_count + expected.graph.edge_count > 60 * textio.PRINT_CHUNK
    argv = [*(["-n"] if backend == "index_scan" else []),
            _write(tmp_path, "p.gp2", corpus.load_program("gen_tree")),
            _write(tmp_path, "h.host", host)]
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.getvalue() == expected.output + "\n"
    assert max(stdout.lengths) < len(expected.output) / 20     # never the whole graph at once
    monkeypatch.undo()
    out_dir = tmp_path / "out"
    assert main(["-o", str(out_dir), *argv]) == 0
    assert capsys.readouterr() == (expected.output + "\n", "")
    assert (out_dir / "out.host").read_text() == expected.output + "\n"
