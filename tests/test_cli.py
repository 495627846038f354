import argparse
import hashlib
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from adjckpt import cli, driver, perfmodel, schedule


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _must_not_run(*args, **kwargs):
    raise AssertionError("a bad flag value reached the work it should have stopped")


def csv_rows(text):
    """The rows of a CLI CSV as dicts, each with exactly one value per column."""
    header, *lines = text.splitlines()
    names = header.split(",")
    rows = [line.split(",") for line in lines]
    assert rows and all(len(cells) == len(names) for cells in rows)
    return [dict(zip(names, cells)) for cells in rows]


MODEL_FLAGS = [
    "--nsteps", "2500", "--state-bytes", "900e6", "--bandwidth", "10e9",
    "--step-cost", "0.1", "--ratio", "42", "--tc", "0.05", "--td", "0.05",
]


class TestAdvise:
    def test_regime_one_recommends_combining(self, capsys):
        code, out, _ = run_cli(capsys, "advise", *MODEL_FLAGS, "--memory", "8e9")
        assert code == 0
        assert "regime: checkpoint-required" in out
        assert "combine checkpointing with compression" in out
        assert "speedup" in out

    def test_regime_two(self, capsys):
        code, out, _ = run_cli(capsys, "advise", *MODEL_FLAGS, "--memory", "100e9")
        assert code == 0
        assert "regime: compression-fits" in out

    def test_regime_three_recommends_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "advise", *MODEL_FLAGS, "--memory", "3e12")
        assert code == 0
        assert "regime: no-action-needed" in out
        assert "no checkpointing or compression needed" in out

    def test_advise_agrees_with_sweep_row(self, capsys, tmp_path):
        out_a = tmp_path / "advise.csv"
        out_s = tmp_path / "sweep.csv"
        args = ["--nsteps", "300", "--state-bytes", "1e6", "--memory", "4e6",
                "--ratio", "4", "--step-cost", "0.01", "--tc", "1e-4", "--td", "1e-4"]
        run_cli(capsys, "advise", *args, "--out", str(out_a))
        run_cli(capsys, "sweep", *args, "--axis", "memory", "--range", "4e6:4e6:1",
                "--out", str(out_s))
        assert out_a.read_text().splitlines()[1] == out_s.read_text().splitlines()[1]

    def test_zero_codec_times_accepted(self, capsys):
        # plain Revolve is the zero-cost codec, as `run --codec null` measures
        code, out, err = run_cli(capsys, "advise", "--tc", "0", "--td", "0")
        assert (code, err) == (0, "")
        assert "recommendation: combine checkpointing with compression" in out
        assert out.splitlines()[-2] == perfmodel.SWEEP_HEADER


class TestSweep:
    def test_csv_schema_and_shape(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--nsteps", "200", "--state-bytes", "1e6",
            "--memory", "4e6", "--ratio", "4", "--axis", "memory",
            "--range", "2e6:50e6:6", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == perfmodel.SWEEP_HEADER
        assert len(lines) == 7
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)

    def test_zero_compress_time_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "memory", "--range", "2e9:3e12:3", "--tc", "0"
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == perfmodel.SWEEP_HEADER
        assert len(lines) == 4

    def test_deterministic_given_flags(self, capsys, tmp_path):
        argv = ["sweep", "--nsteps", "150", "--state-bytes", "1e6", "--memory",
                "3e6", "--ratio", "6", "--axis", "compute-cost", "--range", "1e-3:1:5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *argv, "--out", str(a))
        run_cli(capsys, *argv, "--out", str(b))
        assert a.read_text() == b.read_text()


class TestCompressedOnlyBudget:
    """Budgets under one raw state of 900 MB that still hold compressed ones."""

    def test_advise_prices_only_the_compressed_side(self, capsys, tmp_path):
        out = tmp_path / "row.csv"
        code, text, err = run_cli(capsys, "advise", "--memory", "5e8", "--out", str(out))
        assert (code, err) == (0, "")
        assert text.splitlines()[3:] == [
            "m_plain: 0",
            "m_compressed: 23",
            "p_plain: infeasible",
            "p_compressed: 5159",
            "t_revolve_s: infeasible",
            "t_combined_s: 1274.1635714285715",
            "speedup: infeasible",
            "recommendation: combine checkpointing with compression: "
            "only compressed checkpoints fit the budget",
        ]
        assert out.read_text() == (
            perfmodel.SWEEP_HEADER + "\n" + "500000000.0,,,1274.1635714285715,0,23,,5159\n"
        )

    def test_sweep_prices_the_range_below_one_raw_state(self, capsys):
        code, text, err = run_cli(capsys, "sweep", "--axis", "memory", "--range", "1e8:2e9:4")
        assert (code, err) == (0, "")
        assert text.splitlines() == [
            perfmodel.SWEEP_HEADER,
            "100000000.0,,,3296.962142857143,0,4,,26312",
            "271441761.65949064,,,1610.05,0,12,,8582",
            "736806299.7280774,,,1208.2578571428573,0,34,,4477",
            "2000000000.0,12.211489440673157,12267.2,1004.5621428571429,2,93,115359,2439",
        ]

    def test_budget_under_one_compressed_state_exits_2(self, capsys):
        # 2e7 B is under one compressed state of 900 MB / 42 = 2.14e7 B
        code, _, err = run_cli(capsys, "advise", "--memory", "2e7")
        assert code == 2
        assert err == (
            "error: infeasible-configuration: memory 2e+07 B cannot hold even one "
            "compressed state of 2.14e+07 B\n"
        )


# sha256 prefixes of stdout for advise (defaults, regimes two and three) and
# the three standard sweeps in README; they change only if the plan changes.
PLANNING_DIGESTS = [
    pytest.param(["advise"], "5ab2b7207e81cf7d", id="advise"),
    # the paper regime at 1.2 and 1.8 GB: the compressed side holds 56 and 84 slots
    pytest.param(["advise", "--memory", "1.2e9"], "07f0e504575a1604", id="advise-1.2e9"),
    pytest.param(["advise", "--memory", "1.8e9"], "19757e28a4171499", id="advise-1.8e9"),
    pytest.param(["advise", "--memory", "100e9"], "df1491d6f9ee1ba5", id="advise-100e9"),
    pytest.param(["advise", "--memory", "3e12"], "d43e7ff024c0c2fe", id="advise-3e12"),
    pytest.param(["sweep", "--axis", "memory", "--range", "2e9:3e12:25"], "df13969043e7bbff",
                 id="sweep-memory"),
    pytest.param(["sweep", "--axis", "compute-cost", "--range", "1e-4:1e3:29"], "04f99ba3cf5cf821",
                 id="sweep-compute-cost"),
    pytest.param(["sweep", "--axis", "nsteps", "--range", "40:1200:30", "--memory", "4.5e9",
                  "--ratio", "4"], "f7bead07e04d515f", id="sweep-nsteps"),
]


@pytest.mark.parametrize("argv,digest", PLANNING_DIGESTS)
def test_planning_output_is_byte_stable(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestVerifySchedule:
    def test_prints_schedule_and_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify-schedule", "--nsteps", "5", "--slots", "2")
        assert code == 0
        assert out.startswith("STORE slot=0 state=0")
        assert "ok: n=5 m=2 recompute_steps=5" in out

    def test_round_trips_via_file(self, capsys, tmp_path):
        path = tmp_path / "sched.txt"
        run_cli(capsys, "verify-schedule", "--nsteps", "9", "--slots", "3",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "verify-schedule", "--nsteps", "9",
                               "--slots", "3", "--check", str(path))
        assert code == 0
        assert "ok:" in out

    def test_suboptimal_schedule_rejected(self, capsys, tmp_path):
        # a valid but wasteful stream: single-slot strategy judged at m=2
        acts = schedule.generate_schedule(6, 1)
        path = tmp_path / "bad.txt"
        path.write_text(schedule.format_schedule(acts))
        code, _, err = run_cli(capsys, "verify-schedule", "--nsteps", "6",
                               "--slots", "2", "--check", str(path))
        assert code != 0
        assert "error: invalid-argument:" in err

    def test_carried_state_stream_accepted_below_revolve_count(self, capsys, tmp_path):
        # state 1 is captured once and carried down by ADJOINT 1, so the
        # stream replays 0 steps where Revolve's single-slot count is 1
        path = tmp_path / "carry.txt"
        path.write_text(
            "STORE slot=0 state=0\nADVANCE from=0 to=1\nCAPTURE step=1\nADJOINT step=1\n"
            "RESTORE slot=0 state=0\nADJOINT step=0\nDISCARD slot=0\n"
        )
        code, out, err = run_cli(capsys, "verify-schedule", "--nsteps", "2",
                                 "--slots", "1", "--check", str(path))
        assert (code, err) == (0, "")
        assert "ok: n=2 m=1 recompute_steps=0" in out
        assert "cheaper than the Revolve count 1" in out

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_generated_stream_without_final_capture_accepted(self, capsys, tmp_path, n):
        # the last RESTORE of state 0 already has state 1 carried down
        acts = schedule.generate_schedule(n, 1)
        assert acts[-3] == schedule.PrimalCapture(step=0)
        path = tmp_path / "trimmed.txt"
        path.write_text(schedule.format_schedule(acts[:-3] + acts[-2:]))
        code, out, _ = run_cli(capsys, "verify-schedule", "--nsteps", str(n),
                               "--slots", "1", "--check", str(path))
        assert code == 0
        assert f"recompute_steps={n * (n - 1) // 2 - 1} " in out
        assert f"cheaper than the Revolve count {n * (n - 1) // 2}" in out

    def test_more_slots_than_any_index_stores_every_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-schedule", "--nsteps", "5", "--slots", "100000000000000000000"
        )
        assert code == 0
        assert "recompute_steps=0 writes=5 reads=4 peak_slots=5" in out

    def test_error_line_is_single_and_machine_parsable(self, capsys):
        code, _, err = run_cli(capsys, "verify-schedule", "--nsteps", "0", "--slots", "1")
        assert code == 2
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-argument: ")


class TestProfileCodec:
    def test_emits_one_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile-codec", "--codec", "quant", "--tolerance", "1e-5",
            "--shape", "32x32", "--field", "sine", "--reps", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "codec,input_bytes,output_bytes,ratio,t_c_s,t_d_s,max_abs_error"
        cells = lines[1].split(",")
        assert cells[0] == "quant"
        assert float(cells[3]) > 1.0
        assert float(cells[6]) <= 1e-5

    def test_non_timing_columns_deterministic(self, capsys):
        rows = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "profile-codec", "--codec", "quant", "--tolerance", "1e-4",
                "--shape", "24x24", "--field", "noise", "--seed", "3", "--reps", "2",
            )
            cells = out.strip().splitlines()[1].split(",")
            rows.append((cells[0], cells[1], cells[2], cells[3], cells[6]))
        assert rows[0] == rows[1]

    def test_timing_columns_positive(self, capsys):
        _, out, _ = run_cli(
            capsys, "profile-codec", "--codec", "cast", "--shape", "64", "--field", "gauss",
        )
        cells = out.strip().splitlines()[1].split(",")
        assert float(cells[4]) > 0 and float(cells[5]) > 0

    @pytest.mark.parametrize("flags", [["--tolerance", "-1"], ["--tolerance", "1e-5", "--reps", "0"]],
                             ids=" ".join)
    def test_bad_value_refused_before_the_field_is_made(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "_make_field", _must_not_run)
        try:
            code = cli.main(["profile-codec", "--codec", "quant", "--shape", "512x512", *flags])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert sum("error:" in line for line in capsys.readouterr().err.splitlines()) == 1


class TestRun:
    def test_end_to_end(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "run", "--grid", "40x40", "--nt", "18", "--slots", "2",
            "--codec", "cast", "--out", str(out_csv),
        )
        assert code == 0
        assert "model:" in out and "measured:" in out
        assert out_csv.read_text().splitlines()[0] == cli.RUN_HEADER
        [row] = csv_rows(out_csv.read_text())
        assert float(row["measured_plain_s"]) > 0 and float(row["measured_combined_s"]) > 0
        assert float(row["speedup"]) == float(row["t_revolve_s"]) / float(row["t_combined_s"])
        for m, p in (("m_plain", "p_plain"), ("m_compressed", "p_compressed")):
            assert int(row[p]) == schedule.recompute_count(18, min(int(row[m]), 18))

    def test_defaults_time_a_gradient_that_is_not_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run")
        assert code == 0
        words = next(ln for ln in out.splitlines() if ln.startswith("gradient:")).split()
        misfit, max_g, rel = (float(words[words.index(w) + 1]) for w in ("misfit", "max|g|", "err"))
        assert misfit > 0 and max_g > 1 and rel <= 1e-5

    def test_an_all_zero_gradient_is_named_not_divided(self, capsys, monkeypatch):
        homogeneous = driver.homogeneous_params

        def silent(shape, nt):
            return replace(homogeneous(shape, nt), wavelet=np.zeros(nt))

        monkeypatch.setattr(driver, "homogeneous_params", silent)
        code, out, _ = run_cli(capsys, "run", "--grid", "20x20", "--nt", "6")
        assert code == 0
        assert "gradient: misfit 0  max|g| 0  the plain gradient is all zeros" in out

    def test_each_side_warms_up_then_alternates(self, capsys, monkeypatch):
        sides = []
        execute = driver.execute

        def recording(acts, stepper, store, codec):
            sides.append(codec.name)
            return execute(acts, stepper, store, codec)

        monkeypatch.setattr(driver, "execute", recording)
        code, _, _ = run_cli(
            capsys, "run", "--grid", "20x20", "--nt", "8", "--slots", "2", "--codec", "cast"
        )
        assert code == 0
        assert sides == ["null", "cast"] * 4

    def test_null_codec_prices_both_sides_alike(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "run", "--grid", "40x40", "--nt", "18", "--slots", "2",
            "--codec", "null", "--out", str(out_csv),
        )
        assert code == 0
        assert "speedup 1.000" in next(ln for ln in out.splitlines() if ln.startswith("model:"))
        [row] = csv_rows(out_csv.read_text())
        assert float(row["speedup"]) == 1.0
        assert float(row["profiled_tc_s"]) == float(row["profiled_td_s"]) == 0.0
        assert row["m_plain"] == row["m_compressed"] == "2"

    @pytest.mark.parametrize("k", [1, 3])
    def test_budget_of_k_raw_states_plans_k_plain_slots(self, capsys, tmp_path, k):
        nbytes = 2 * 30 * 30 * 8  # the leapfrog pair
        out_csv = tmp_path / "run.csv"
        code, _, _ = run_cli(
            capsys, "run", "--grid", "30x30", "--nt", "12", "--budget", str(k * nbytes),
            "--out", str(out_csv),
        )
        assert code == 0
        [row] = csv_rows(out_csv.read_text())
        assert int(row["m_plain"]) == k

    def test_budget_below_one_state_exits_2(self, capsys):
        nbytes = 2 * 30 * 30 * 8
        code, _, err = run_cli(
            capsys, "run", "--grid", "30x30", "--nt", "12", "--budget", str(nbytes - 1)
        )
        assert code == 2
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: capacity: ")

    def test_budget_beyond_any_slot_index_runs(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--grid", "20x20", "--nt", "5", "--budget", "1e300")
        assert code == 0
        assert "measured:" in out

    def test_flag_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--grid", "30x30", "--nt", "12", "--slots", "2",
            "--codec", "quant", "--tolerance", "1e-7",
        )
        assert code == 0
        assert "codec=quant" in out

    def test_slots_and_budget_exclude_each_other(self, capsys, monkeypatch):
        monkeypatch.setattr(driver, "calibrate", _must_not_run)
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--slots", "2", "--budget", "1e6"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_unknown_subcommand_rejected_before_work(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["warp-speed"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--budget", "0"],
        ["--budget", "-1"],
        ["--budget", "nan"],
        ["--budget", "inf"],
        ["--codec", "quant", "--tolerance", "-1"],
        ["--grid", "200x200x200"],
    ], ids=" ".join)
    def test_bad_value_refused_before_calibration(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(driver, "calibrate", _must_not_run)
        code, out, err = run_cli(capsys, "run", *flags)
        assert (code, out) == (2, "")
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid-argument: ")
        if flags[0] == "--budget":
            assert "budget must be positive" in lines[0]

    @pytest.mark.parametrize("slots", ["0", "-1"])
    def test_slots_below_one_rejected_when_parsed(self, slots):
        # refused before the calibration sweep runs, as --budget 0 is
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["run", "--slots", slots])
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--grid", "abc"],
    ["profile-codec", "--codec", "null", "--shape", "4xq"],
    ["profile-codec", "--codec", "null", "--field", "wavefield", "--shape", "5x5x5x5"],
    ["sweep", "--axis", "memory", "--range", "a:b:3"],
    ["sweep", "--axis", "memory", "--range", "1e9:2e9:x"],
    ["sweep", "--axis", "memory", "--range", "1e9:inf:3"],
    ["advise", "--ratio", "inf"],
    ["advise", "--memory", "inf"],
    ["advise", "--step-cost", "inf"],
    ["advise", "--tc", "nan"],
    ["advise", "--ratio", "0.5"],
    ["advise", "--tc", "-1"],
    ["advise", "--memory", "0"],
    ["advise", "--state-bytes", "nan"],
    ["run", "--budget", "inf"],
    ["run", "--budget", "-1"],
    ["run", "--slots", "-1"],
    ["run", "--slots", "0"],
    ["profile-codec", "--codec", "rate", "--rate", "8"],
    ["advise", "--nsteps", "100000000000000000000000"],
    ["advise", "--nsteps", "2000000000"],
    ["advise", "--ratio", "1e308"],
    ["advise", "--state-bytes", "1e-300", "--memory", "1e300"],
    ["advise", "--state-bytes", "5e-324", "--ratio", "2"],
    ["advise", "--bandwidth", "1e-320"],
    ["sweep", "--axis", "compute-cost", "--range", "1e-3:1:3", "--bandwidth", "1e-320"],
], ids=" ".join)
def test_bad_shape_or_range_text_exits_2(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("adjckpt ") and "[" not in line:
                yield shlex.split(line)[1:]


@pytest.mark.parametrize("argv", list(_readme_commands()), ids=" ".join)
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv)


def test_readme_documents_the_sweep_header():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert perfmodel.SWEEP_HEADER + "\n" in re.findall(r"```[a-z]*\n(.*?)```", text, re.S)


@pytest.mark.parametrize("argv", [
    ["advise", "--nsteps", "300", "--state-bytes", "1e6", "--memory", "4e6", "--ratio", "4"],
    ["sweep", "--axis", "nsteps", "--range", "40:400:5", "--memory", "4.5e9", "--ratio", "4"],
    ["run", "--grid", "20x20", "--nt", "8", "--slots", "2", "--codec", "quant"],
    ["profile-codec", "--codec", "cast", "--shape", "16x16"],
], ids=lambda argv: argv[0])
def test_every_csv_row_fills_its_header(capsys, tmp_path, argv):
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    rows = csv_rows(out.read_text())
    assert len(rows) == (5 if argv[0] == "sweep" else 1)


def test_each_model_field_has_one_flag():
    parser = argparse.ArgumentParser()
    cli._add_model_flags(parser)
    dests = [a.dest for a in parser._actions if a.dest != "help"]
    assert sorted(dests) == sorted(f.name for f in fields(perfmodel.PerfParams))
    args = parser.parse_args(["--memory", "3e9", "--tc", "0.25", "--td", "0.5"])
    p = cli._model_params(args)
    assert (p.memory_bytes, p.compress_time, p.decompress_time) == (3e9, 0.25, 0.5)
