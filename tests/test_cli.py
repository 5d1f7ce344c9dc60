"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "TSO-CC-4-12-3" in out
    assert "blackscholes" in out and "STAMP" in out


def test_protocols_command(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "TSO-CC-4-12-3" in out and "MSI" in out
    assert "storage_bits" in out and "kind" in out


def test_protocols_command_scales_storage_with_cores(capsys):
    assert main(["protocols", "--cores", "8"]) == 0
    small = capsys.readouterr().out
    assert main(["protocols", "--cores", "128"]) == 0
    large = capsys.readouterr().out
    assert small != large and "128 cores" in large


def test_run_command_accepts_msi(capsys):
    code = main(["run", "fft", "--protocol", "MSI", "--cores", "2",
                 "--scale", "0.2", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MSI" in out and "cycles" in out


def test_run_command_small(capsys):
    code = main(["run", "fft", "--protocol", "MESI", "--protocol", "TSO-CC-4-12-3",
                 "--cores", "4", "--scale", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "TSO-CC-4-12-3" in out
    assert "cycles" in out


def test_storage_command(capsys):
    assert main(["storage", "--cores", "32,128"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "128" in out


def test_figure_command_subset(capsys):
    code = main(["figure", "3", "--workloads", "fft", "--cores", "4",
                 "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "gmean" in out


def test_figure_command_rejects_unknown_figure(capsys):
    assert main(["figure", "42", "--workloads", "fft", "--cores", "4",
                 "--scale", "0.2"]) == 2


def test_litmus_command(capsys):
    code = main(["litmus", "--protocol", "TSO-CC-4-12-3", "--iterations", "3",
                 "--tests", "MP,SB"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MP" in out and "ALL PASS" in out


def test_litmus_command_unknown_test():
    assert main(["litmus", "--tests", "NOPE"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_rejects_unknown_workload(capsys):
    # The workload argument is free-form (benchmarks, generators, traces),
    # so rejection happens at eager name resolution, not argparse.
    assert main(["run", "unknownbench"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    assert main(["run", "zipf:q9"]) == 2
    assert main(["run", "trace:no-such-trace"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "fft", "--protocol", "NOPE", "--cores", "2", "--scale", "0.2",
     "--no-cache"],
    ["figure", "3", "--protocols", "NOPE", "--cores", "2", "--scale", "0.2",
     "--no-cache"],
    ["storage", "--cores", "3x"],
    ["litmus", "--iterations", "0"],
    ["litmus", "--iterations", "-2"],
    ["cache", "ls", "--limit", "-1"],
    # A --kind that names no registered cell kind.
    ["cache", "gc", "--kind", "bogus", "--max-age", "1s"],
    ["cache", "ls", "--kind", "bogus"],
    ["report", "cache", "--kind", "bogus", "--cache-dir", "TMP"],
    ["report", "diff", "TMP", "TMP", "--kind", "bogus"],
    # A directory that must already exist.
    ["shard", "merge", "--from", "MISSING", "--cache-dir", "TMP"],
    ["fuzz", "merge", "--from", "MISSING", "--cache-dir", "TMP"],
    ["cache", "stats", "--cache-dir", "MISSING"],
    ["cache", "ls", "--cache-dir", "MISSING"],
    ["cache", "gc", "--max-age", "1s", "--cache-dir", "MISSING"],
    ["report", "cache", "--cache-dir", "MISSING"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    paths = {"TMP": str(tmp_path), "MISSING": str(tmp_path / "missing")}
    argv = [paths.get(arg, arg) for arg in argv]
    if argv[0] == "cache" and "--cache-dir" not in argv:
        argv = argv + ["--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def _leaf_commands(parser, path=()):
    """Every leaf command of ``parser`` as ``(argv prefix, subparser)``."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_commands(sub, path + (name,))


#: Every leaf command by its argv prefix ("fuzz run").
LEAVES = {" ".join(path): leaf for path, leaf in _leaf_commands(build_parser())}


@pytest.mark.parametrize("command", list(LEAVES))
def test_every_leaf_command_has_help_and_a_handler(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split() + ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {command}")
    assert callable(LEAVES[command].get_default("func"))
