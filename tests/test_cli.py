import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from adjckpt import cli, perfmodel, schedule


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_deterministic_given_flags(self, capsys, tmp_path):
        argv = ["sweep", "--nsteps", "150", "--state-bytes", "1e6", "--memory",
                "3e6", "--ratio", "6", "--axis", "compute-cost", "--range", "1e-3:1:5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *argv, "--out", str(a))
        run_cli(capsys, *argv, "--out", str(b))
        assert a.read_text() == b.read_text()


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


class TestRun:
    def test_end_to_end(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "run", "--grid", "40x40", "--nt", "18", "--slots", "2",
            "--codec", "cast", "--out", str(out_csv),
        )
        assert code == 0
        assert "model:" in out and "measured:" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == cli.RUN_HEADER
        cells = lines[1].split(",")
        assert len(cells) == len(cli.RUN_HEADER.split(","))
        assert float(cells[8]) > 0 and float(cells[9]) > 0
        row = dict(zip(cli.RUN_HEADER.split(","), cells))
        assert float(row["speedup"]) == float(row["t_revolve_s"]) / float(row["t_combined_s"])
        for m, p in (("m_plain", "p_plain"), ("m_compressed", "p_compressed")):
            assert int(row[p]) == schedule.recompute_count(18, min(int(row[m]), 18))

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

    def test_unknown_subcommand_rejected_before_work(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["warp-speed"])
        assert err.value.code == 2

    def test_zero_budget_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--budget", "0"])
        assert err.value.code == 2
        assert "budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--grid", "abc"],
    ["profile-codec", "--codec", "null", "--shape", "4xq"],
    ["profile-codec", "--codec", "null", "--field", "wavefield", "--shape", "5x5x5x5"],
    ["sweep", "--axis", "memory", "--range", "a:b:3"],
    ["sweep", "--axis", "memory", "--range", "1e9:2e9:x"],
], ids=" ".join)
def test_bad_shape_or_range_text_exits_2(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "Traceback" not in err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("adjckpt ") and "[" not in line:
                yield shlex.split(line)[1:]


@pytest.mark.parametrize("argv", list(_readme_commands()), ids=" ".join)
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv)
