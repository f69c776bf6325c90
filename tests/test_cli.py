"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "DimWAR" in out and "OmniWAR" in out
    assert "fig6g" in out and "smoke" in out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--algorithm", "OmniWAR", "--pattern", "BC",
        "--widths", "3", "3", "--terminals", "2",
        "--rates", "0.15", "--cycles", "1200",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OmniWAR on BC" in out
    assert "0.15" in out


def test_sweep_dcr_requires_3d(capsys):
    """Domain errors route through the argparse error path: usage + message
    on stderr, exit code 2 — never a raw traceback."""
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--pattern", "DCR", "--widths", "3", "3",
            "--rates", "0.1", "--cycles", "500",
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "sweep:" in err and "3-D" in err


def test_sweep_check_flag(capsys):
    rc = main([
        "sweep", "--algorithm", "DimWAR", "--widths", "2", "2",
        "--rates", "0.1", "--cycles", "400", "--check",
    ])
    assert rc == 0
    assert "DimWAR on UR" in capsys.readouterr().out


def test_stencil_command(capsys):
    rc = main([
        "stencil", "--algorithms", "DOR", "--mode", "collective",
        "--iterations", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "collective" in out and "DOR" in out


def test_figure_table1(capsys):
    assert main(["figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "DimWAR" in out and "Clos-AD" in out


def test_figure_fig2(capsys):
    assert main(["figure", "fig2"]) == 0
    assert "78608" in capsys.readouterr().out


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["explode"])
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])
    with pytest.raises(SystemExit):
        main(["sweep", "--algorithm", "NOPE"])


@pytest.mark.parametrize("value", ["abc", "3"])
def test_shards_env_var_is_not_read(value, monkeypatch, capsys):
    """``--shards`` is the one way to shard a sweep: no environment
    variable feeds its default, so a malformed one cannot break the
    parser of every subcommand."""
    monkeypatch.setenv("REPRO_SHARDS", value)
    with pytest.raises(SystemExit) as exc:
        main(["stencil", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert _build_parser().parse_args(["sweep"]).shards == 0


# ---------------------------------------------------------------------------
# trace subcommand
# ---------------------------------------------------------------------------


def test_trace_command_live_with_timeseries(capsys):
    rc = main([
        "trace", "--algorithm", "OmniWAR", "--widths", "2", "2",
        "--rate", "0.25", "--cycles", "300", "--window", "100",
        "--heatmap", "vc",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace: OmniWAR on UR" in out
    assert "inject=" in out and "eject=" in out
    assert "window" in out  # time-series table header
    assert "vc0" in out  # heatmap rows


def test_trace_command_golden_reproduces_pinned_bytes(tmp_path, capsys):
    import os

    out_path = str(tmp_path / "g.jsonl")
    rc = main(["trace", "--golden", "DimWAR", "--jsonl", out_path])
    assert rc == 0
    assert "golden scenario DimWAR" in capsys.readouterr().out
    pinned = os.path.join(
        os.path.dirname(__file__), "golden", "trace_DimWAR.jsonl"
    )
    with open(out_path) as f, open(pinned) as g:
        assert f.read() == g.read()


def test_trace_command_profile_report(capsys):
    rc = main([
        "trace", "--widths", "2", "2", "--rate", "0.2",
        "--cycles", "200", "--profile",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phase" in out and "route" in out and "total" in out


def test_trace_command_chrome_export(tmp_path, capsys):
    import json

    path = str(tmp_path / "t.chrome.json")
    rc = main([
        "trace", "--widths", "2", "2", "--rate", "0.2",
        "--cycles", "200", "--chrome", path,
    ])
    assert rc == 0
    assert "perfetto" in capsys.readouterr().out
    with open(path) as f:
        assert "traceEvents" in json.load(f)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["trace", "--golden", "DimWAR", "--profile"], "--profile"),
        (["trace", "--golden", "DimWAR", "--window", "100"], "--window"),
        (["trace", "--golden", "Valiant"], "Valiant"),
        (["trace", "--heatmap", "vc"], "--window"),
        (["trace", "--sample-every", "0"], "sample_every"),
    ],
)
def test_trace_bad_flags_exit_2(argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "trace:" in err and needle in err


def test_faults_bad_schedule_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["faults", "--schedule", "/nonexistent/schedule.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "faults:" in err


def test_faults_rejects_non_fault_capable_algorithm(capsys):
    """A registered-but-not-fault-capable name fails up front with exit 2
    and the capable list — never a mid-run NoRouteError traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["faults", "--algorithms", "VAL", "DimWAR"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "faults:" in err
    assert "VAL is not fault-capable" in err
    assert "FTHX" in err and "VCFree" in err  # the capable list is named


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["faults", "--compare", "--schedule", "s.json"], "--schedule"),
        (["faults", "--terminals", "2"], "--widths"),
        (["faults", "--compare", "--fault-counts", "-1"], "--fault-counts"),
    ],
)
def test_faults_bad_flag_combos_exit_2(argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "faults:" in err and needle in err


def test_faults_compare_smoke(capsys):
    rc = main([
        "faults", "--compare", "--algorithms", "DimWAR", "FTHX",
        "--fault-counts", "0", "1", "--no-saturation", "--rate", "0.1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fault head-to-head" in out
    assert "Delivered fraction" in out and "Settling time" in out
    assert "DimWAR" in out and "FTHX" in out
    assert "aturation" not in out  # table suppressed by --no-saturation


def test_bench_only_prints_one_row(capsys):
    rc = main(["bench", "--only", "test_perf_simulation_cycles_idle"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "nproc=" in out[0] and "python=" in out[0]
    rows = [line for line in out if line.startswith("test_perf_")]
    assert len(rows) == 1 and len(out) == 4  # title, header, rule, row
    assert rows[0].split()[0] == "test_perf_simulation_cycles_idle"


def test_bench_each_round_context_is_outside_the_timer():
    """``each_round`` (the cold-chunk probe's fresh assembly) wraps every
    timed round and its cost is in no sample."""
    import time
    from contextlib import contextmanager

    from repro.analysis.bench import _time_scenario

    events = []

    @contextmanager
    def each_round():
        events.append("enter")
        time.sleep(0.2)
        yield
        events.append("exit")

    samples = _time_scenario(
        lambda: events.append("fn"), rounds=3, iterations=2, each_round=each_round
    )
    assert events == ["enter", "fn", "fn", "exit"] * 3
    assert len(samples) == 3 and max(samples) < 0.1


def test_bench_unknown_xl_name_still_rejected():
    from repro.analysis.bench import run_benchmarks

    with pytest.raises(ValueError, match="unknown benchmark"):
        run_benchmarks(["test_perf_network_construction_32x32x32"])


def test_bench_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--only", "no_such_benchmark"])
    assert exc.value.code == 2
    assert "unknown benchmark" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--out", "x.json"], ["--compare"]])
def test_bench_recorded_file_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["serve", "--port", "-1"], "port"),
        (["serve", "--port", "70000"], "port"),
        (["serve", "--queue-depth", "0"], "queue-depth"),
        (["serve", "--rate-limit", "-2"], "rate-limit"),
        (["serve", "--rate-limit", "5", "--burst", "0"], "burst"),
    ],
)
def test_serve_bad_flags_exit_2(argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "serve:" in err and needle in err
