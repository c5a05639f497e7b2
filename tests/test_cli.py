import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitlab
from qubitlab import cli, quoin
from qubitlab.bell import BellKind
from qubitlab.errors import QubitLabError
from qubitlab.quoin import MAX_LANES, QuoinMechanics


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def run_python(args, timeout):
    """`python ARGS` with this package on the path, in a subprocess so that a
    hang fails the test instead of stalling the run."""
    src = str(Path(qubitlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


def run_module(argv, timeout):
    """`python -m qubitlab ARGV --format json` through run_python."""
    return run_python(["-m", "qubitlab", *argv, "--format", "json"], timeout)


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

    def test_simulate_defaults_to_10000_games_as_text(self, capsys):
        code, out = run_cli(capsys, "game", "simulate", "--strategy", "random")
        assert code == 0
        assert "games: 10000" in out.splitlines() and "schema: 1" in out.splitlines()

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
        dealt = []
        play = quoin._play

        def spy(strategy, dealer_seed, mech_seed, games, *args):
            dealt.extend(np.atleast_1d(games).tolist())
            return play(strategy, dealer_seed, mech_seed, games, *args)

        monkeypatch.setattr(quoin, "_play", spy)
        path = tmp_path / "games.jsonl"
        code, _ = run_json(capsys, "game", "simulate", "--games", "40", "--transcript", str(path))
        assert code == 0
        assert sorted(dealt) == list(range(40))
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


class TestParserLiterals:
    """build_parser spells the kinds and the lane default out, so it loads neither bell nor quoin."""

    def test_kind_choices_are_the_bell_kinds(self):
        assert list(cli.BELL_KINDS) == [k.value for k in BellKind]

    def test_default_lanes_are_the_library_default(self):
        assert cli.DEFAULT_LANES == quoin.DEFAULT_LANES
        assert cli.build_parser().parse_args(["game", "simulate"]).lanes == quoin.DEFAULT_LANES


# sha256 of each --help text at 80 columns under Python 3.11's argparse, recorded before the parser
# stopped reading bell.BellKind and quoin.DEFAULT_LANES
HELP_SHA256 = {
    "": "281a02155576fc81d7e2a34b66941dec76ff83705d498d06617fe6f3f738d261",
    "project": "f80e6d7b88a988176eea237777d87e457fe23e114460c83864357b2bee63b9d2",
    "bell": "dd846c4ef5ef71e1f97ce126cb61a0689c278e03aa7d0954a0a963c449204345",
    "chsh": "f23f59becd0802b9b2f3acfb01367aafb59d23ed40f9396aab84b54ce2eb9c86",
    "game": "9dc49ba6d1d2973f353bc05eb839974233807f67be30895858af982bb29a0cba",
}


@pytest.mark.parametrize("sub", list(HELP_SHA256), ids=lambda sub: sub or "top")
def test_help_text_is_pinned(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"] if sub else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[sub]


class TestLaneBounds:
    @pytest.mark.parametrize("lanes", ["0", "-1", str(MAX_LANES + 1)])
    def test_out_of_range_lanes_exit_2(self, lanes):
        proc = run_module(["game", "simulate", "--lanes", lanes], timeout=30)
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
        proc = run_module(argv, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exceed the bound" in proc.stderr
        assert "Traceback" not in proc.stderr


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


class TestRoundedZeroCell:
    def test_band_of_a_cell_rounded_below_zero(self, capsys):
        # at this angle phi+'s correlator rounds to 1 + 2**-52, leaving p_pm = p_mp = -2**-54;
        # the 3-sigma band used to take the square root of a negative number
        a = "-6.190960832986809"
        code, payload = run_json(capsys, "bell", "--kind", "phi+", "--a", a, "--b", a, "--trials", "10")
        assert payload["p_pm"] < 0.0
        assert code == 0 and payload["empirical"]["within_band"]


class TestUnwritableTranscript:
    def test_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "games.jsonl"
        with pytest.raises(SystemExit) as exc:
            cli.main(["game", "simulate", "--games", "5", "--transcript", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # 10 games fail when the file is closed, 5000 games (over one block) when a block is written
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("games", ["10", "5000"])
    def test_full_device_exits_2(self, games):
        proc = run_module(["game", "simulate", "--games", games, "--transcript", "/dev/full"], timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cannot write the transcript: [Errno 28]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_path_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["game", "simulate", "--games", "5", "--transcript", ""])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write the transcript" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_play_refuses_a_transcript(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            cli.main(["game", "play", "--transcript", "games.jsonl"])
        assert exc.value.code == 2
        assert "--transcript applies only to game simulate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # game play used to ignore both, even an explicit default; it plays one game and prints text
    @pytest.mark.parametrize(
        "option,value", [("--games", "5"), ("--games", "10000"), ("--format", "json"), ("--format", "text")]
    )
    def test_play_refuses_games_and_format(self, capsys, monkeypatch, option, value):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            cli.main(["game", "play", option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} applies only to game simulate" in captured.err


# argv fuzz: valid sizes stay small (games <= 2000, trials <= 10**5, scan <= 720),
# and every option also draws out-of-range numbers and junk
JUNK = st.text(st.sampled_from("-+.,:*/0123456789aeinpx "), max_size=8)


def numbers_up_to(hi, beyond):
    return st.one_of(st.integers(-3, hi).map(str), st.sampled_from(beyond), JUNK)


ANGLE = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["pi/3", "-3*pi/4", "2pi", "pi/0", "1e400", "nan", "-inf", "9" * 400 + "pi"]),
    JUNK,
)
SEED = st.one_of(st.integers(-3, 2**70).map(str), JUNK)
COMMON = st.fixed_dictionaries(
    {},
    optional={
        "--seed": SEED,
        "--format": st.sampled_from(["text", "json", "csv", "xml"]),
        "--degrees": st.just(None),
    },
)
KIND = st.sampled_from(["singlet", "psi+", "phi-", "phi+", "psi-"])
PLANE = st.sampled_from(["xy", "yz", "xz", "zz"])
TRIALS = numbers_up_to(10**5, ["1073741825", "100000000000"])
COMMANDS = {
    "project": st.fixed_dictionaries({"--theta": ANGLE}, optional={"--trials": TRIALS}),
    "bell": st.fixed_dictionaries(
        {"--kind": KIND, "--a": ANGLE, "--b": ANGLE}, optional={"--plane": PLANE, "--trials": TRIALS}
    ),
    "chsh": st.fixed_dictionaries(
        {"--source": st.sampled_from(["quantum", "prbox", "lhv", "box"])},
        optional={
            "--kind": KIND,
            "--plane": PLANE,
            "--angles": st.lists(ANGLE, max_size=5).map(",".join),
            "--scan": numbers_up_to(720, ["4097", "100000"]),
        },
    ),
    "game": st.fixed_dictionaries(
        {"simulate": st.just(None)},
        optional={
            "--strategy": st.one_of(
                st.sampled_from(["quoin", "random", "classical:99", "classical:-1", "bits"]),
                st.integers(0, 9).map("classical:{}".format),
            ),
            "--games": numbers_up_to(2000, ["2097153", "1000000000000"]),
            "--lanes": numbers_up_to(10, ["100"]),
            "--mech": st.sampled_from(["quoin", "quantum", "classical"]),
            "--transcript": st.sampled_from(["games.jsonl", "missing/games.jsonl"]),
        },
    ),
}


@st.composite
def argvs(draw):
    if draw(st.integers(0, 9)) == 0:  # sometimes no grammar at all
        return draw(st.lists(st.one_of(JUNK, st.sampled_from([*COMMANDS, "--games", "--seed"])), max_size=6))
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [cmd]
    for key, value in {**draw(COMMANDS[cmd]), **draw(COMMON)}.items():
        argv += [key] if value is None else [key, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv_fuzz")


class TestArgvFuzz:
    @settings(max_examples=200, deadline=datetime.timedelta(seconds=10))
    @given(argv=argvs())
    def test_every_argv_exits_0_1_or_2(self, fuzz_dir, argv):
        argv = [str(fuzz_dir / a) if a.endswith("games.jsonl") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
