import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubitlab
from qubitlab import cli, quoin
from qubitlab.errors import QubitLabError
from qubitlab.quoin import MAX_LANES, QuoinMechanics


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi/6", -math.pi / 6),
            ("3*pi/4", 3 * math.pi / 4),
            ("0.5", 0.5),
            ("1.5707963267948966", math.pi / 2),
        ],
    )
    def test_radians(self, text, value):
        assert abs(cli.parse_angle(text) - value) <= 1e-12

    def test_degrees_mode_plain_numbers(self):
        assert abs(cli.parse_angle("90", degrees=True) - math.pi / 2) <= 1e-12

    def test_degrees_mode_keeps_pi_expressions(self):
        assert abs(cli.parse_angle("pi/2", degrees=True) - math.pi / 2) <= 1e-12

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            cli.parse_angle("three o'clock")


class TestProject:
    def test_aligned(self, capsys):
        code, payload = run_json(capsys, "project", "--theta", "0")
        assert code == 0
        assert payload["schema"] == 1
        assert payload["p_plus"] == 1.0

    def test_symmetric_angle_mean_zero(self, capsys):
        code, payload = run_json(capsys, "project", "--theta", "pi/2")
        assert code == 0
        assert abs(payload["mean"]) <= 1e-12

    def test_sampled_run_within_band(self, capsys):
        code, payload = run_json(
            capsys, "project", "--theta", "2.0943951", "--trials", "100000", "--seed", "7"
        )
        assert code == 0
        assert abs(payload["p_plus"] - 0.25) <= 1e-7  # the truncated-decimal angle
        assert payload["empirical"]["within_band"] is True

    def test_malformed_angle_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["project", "--theta", "nonsense"])
        assert exc.value.code == 2


class TestBell:
    def test_phi_plus_same_angle(self, capsys):
        code, payload = run_json(
            capsys, "bell", "--kind", "phi+", "--plane", "xz", "--a", "0", "--b", "0"
        )
        assert code == 0
        assert abs(payload["p_pp"] - 0.5) <= 1e-12
        assert abs(payload["p_mm"] - 0.5) <= 1e-12

    def test_singlet_same_angle(self, capsys):
        code, payload = run_json(capsys, "bell", "--kind", "singlet", "--a", "0", "--b", "0")
        assert code == 0
        assert abs(payload["p_pm"] - 0.5) <= 1e-12
        assert abs(payload["p_mp"] - 0.5) <= 1e-12

    def test_phi_plus_pi_third(self, capsys):
        code, payload = run_json(
            capsys, "bell", "--kind", "phi+", "--plane", "xz", "--a", "0", "--b", "pi/3"
        )
        assert code == 0
        assert abs(payload["p_pp"] - 0.375) <= 1e-12

    def test_kind_plane_mismatch_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bell", "--kind", "psi+", "--plane", "xz", "--a", "0", "--b", "0"])
        assert exc.value.code == 2


class TestChsh:
    def test_prbox(self, capsys):
        code, payload = run_json(capsys, "chsh", "--source", "prbox")
        assert code == 0
        assert payload["chsh"] == 4.0
        assert payload["no_signalling"] is True
        assert payload["conservation"] == "inconsistent"

    def test_lhv(self, capsys):
        code, payload = run_json(capsys, "chsh", "--source", "lhv")
        assert code == 0
        assert payload["chsh"] == 2.0
        assert payload["maximizers"] == 16

    def test_quantum_canonical(self, capsys):
        code, payload = run_json(capsys, "chsh", "--source", "quantum")
        assert code == 0
        assert abs(payload["chsh"] - 2 * math.sqrt(2)) <= 1e-9
        assert payload["no_signalling"] is True
        assert payload["conservation"] == "not_applicable"

    def test_quantum_scan(self, capsys):
        code, payload = run_json(capsys, "chsh", "--source", "quantum", "--scan", "180")
        assert code == 0
        assert abs(payload["scan"]["max_chsh"] - 2.828427) <= 1e-6
        assert payload["scan"]["within_bound"] is True

    def test_angles_with_prbox_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chsh", "--source", "prbox", "--angles", "0,1,2,3"])
        assert exc.value.code == 2


class TestGame:
    def test_simulate_quoin(self, capsys):
        code, payload = run_json(
            capsys, "game", "simulate", "--strategy", "quoin", "--games", "2000"
        )
        assert code == 0
        assert payload["win_rate"] == 1.0
        assert payload["mean_chips_net"] == 4.0

    def test_simulate_random_near_half(self, capsys):
        code, payload = run_json(
            capsys, "game", "simulate", "--strategy", "random", "--games", "10000", "--seed", "3"
        )
        assert code == 0
        assert abs(payload["win_rate"] - 0.5) <= 3 * math.sqrt(0.25 / 10000)

    def test_simulate_classical(self, capsys):
        code, payload = run_json(
            capsys, "game", "simulate", "--strategy", "classical:3", "--games", "500"
        )
        assert code == 0
        assert 0.0 <= payload["win_rate"] <= 1.0

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["game", "simulate", "--strategy", "psychic"])
        assert exc.value.code == 2

    def test_play_refuses_non_tty(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = cli.main(["game", "play", "--strategy", "quoin", "--seed", "11"])
        assert code == 2

    def test_transcript_jsonl(self, capsys, tmp_path):
        path = tmp_path / "games.jsonl"
        code, _ = run_json(
            capsys,
            "game", "simulate", "--strategy", "quoin", "--games", "25",
            "--transcript", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 25
        for line in lines:
            obj = json.loads(line)
            assert obj["chips_net"] == 4
            assert obj["bits_bought"] == 1

    def test_transcript_plays_each_game_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        play_game = quoin.play_game
        monkeypatch.setattr(quoin, "play_game", lambda *a, **k: calls.append(k["game_index"]) or play_game(*a, **k))
        path = tmp_path / "games.jsonl"
        code, _ = run_json(capsys, "game", "simulate", "--games", "40", "--transcript", str(path))
        assert code == 0
        assert calls == list(range(40))
        assert len(path.read_text().splitlines()) == 40

    def test_interactive_session_replays_from_seed(self, capsys):
        # feed the protocol answers: buy the bit, then guess what it suggests
        said = []
        answers = iter(["y", None])
        suggestion = {}

        def fake_input(prompt):
            answer = next(answers)
            if answer is None:
                return suggestion["guess"]
            return answer

        def say(line):
            said.append(line)
            if line.startswith("protocol guess:"):
                suggestion["guess"] = line.split()[-1]

        record = cli.run_interactive_game(
            11, QuoinMechanics.standard(), 5, fake_input, say
        )
        assert record.correct
        assert record.chips_net == 4
        # replay with the same seed: identical deal and transcript
        said2 = []
        answers2 = iter(["y", None])

        def fake_input2(prompt):
            answer = next(answers2)
            if answer is None:
                return suggestion["guess"]
            return answer

        record2 = cli.run_interactive_game(
            11, QuoinMechanics.standard(), 5, fake_input2, said2.append
        )
        assert record2 == record


class TestReproducibility:
    def test_identical_command_identical_bytes(self, capsys):
        args = ["project", "--theta", "pi/3", "--trials", "5000", "--seed", "5", "--format", "json"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second
        args = ["game", "simulate", "--strategy", "random", "--games", "300", "--format", "json"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "project", "--theta", "pi/3", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert "p_plus" in header
        assert "0.75" in row

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "chsh", "--source", "prbox")
        assert code == 0
        assert "chsh: 4" in out
        assert "conservation: inconsistent" in out


class TestNonFiniteAndOversizedInput:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e400", "9" * 400 + "pi"])
    def test_parse_angle_rejects_non_finite(self, text):
        with pytest.raises(QubitLabError):
            cli.parse_angle(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--theta", "nan"],
            ["project", "--theta", "inf"],
            ["bell", "--kind", "singlet", "--a", "nan", "--b", "0"],
            ["chsh", "--source", "quantum", "--angles", "nan,0,0,0"],
            ["chsh", "--source", "quantum", "--scan", "100000"],
            ["chsh", "--source", "quantum", "--kind", "psi+", "--plane", "xz"],
        ],
    )
    def test_rejected_with_exit_2_and_no_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestLaneBounds:
    @pytest.mark.parametrize("lanes", ["0", "-1", str(MAX_LANES + 1)])
    def test_out_of_range_lanes_exit_2(self, lanes):
        # a subprocess with a timeout, so a hang fails the test instead of stalling the run
        src = str(Path(qubitlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "qubitlab", "game", "simulate", "--lanes", lanes, "--format", "json"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "lanes must be" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTrialBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--theta", "1", "--trials", "2000000000"],
            ["project", "--theta", "1", "--trials", "100000000000"],
            ["bell", "--kind", "singlet", "--a", "0", "--b", "1", "--trials", "2000000000"],
        ],
        ids=["project-2e9", "project-1e11", "bell-2e9"],
    )
    def test_trials_beyond_the_bound_exit_2(self, argv):
        # over the bound the samplers must refuse before drawing: streamed,
        # 2e9 trials would run for tens of seconds, 1e11 for about 20 minutes
        src = str(Path(qubitlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "qubitlab", *argv, "--format", "json"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exceed the bound" in proc.stderr
        assert "Traceback" not in proc.stderr


def run_module(argv, timeout):
    """`python -m qubitlab ARGV` in a subprocess, so a hang fails instead of stalling the run."""
    src = str(Path(qubitlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "qubitlab", *argv, "--format", "json"],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestSeedBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "simulate", "--seed", "-1"],
            ["game", "simulate", "--seed", "-1", "--games", "5", "--transcript", "unused.jsonl"],
            ["project", "--theta", "1", "--trials", "10", "--seed", "-5"],
            ["bell", "--kind", "singlet", "--a", "0", "--b", "1", "--trials", "10", "--seed", "-5"],
        ],
        ids=["simulate", "simulate-transcript", "project", "bell"],
    )
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        proc = run_module(argv, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "nonnegative integer" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGameBounds:
    def test_games_beyond_the_bound_exit_2(self):
        proc = run_module(["game", "simulate", "--games", "1000000000000"], timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exceed the bound" in proc.stderr
        assert "Traceback" not in proc.stderr
