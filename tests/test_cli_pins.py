"""Byte pins of the CLI: exit code, stdout, stderr and transcript of a fixed command set.

Each command runs in-process through `cli.main` in an empty directory, with a
relative transcript path, no terminal on stdin and COLUMNS=80. The sha256 of
its four outputs is pinned. A deliberate output change re-records the table,
which this prints with the commands whose digest moved listed below it, and
exits 1 when any moved:

    PYTHONPATH=src python tests/test_cli_pins.py

The `game` rows and the interactive game also pin the random-stream contract
(README "Conventions"): a change that moves them changes the contract, and
must bump its version and re-record them on purpose.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import pytest

from qubitlab import cli
from qubitlab.quoin import QuoinMechanics

TRANSCRIPT = "t.jsonl"
FORMATS = ("json", "text", "csv")


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for theta, fmt in itertools.product(("0", "1", "pi/3", "-3*pi/4"), FORMATS):
        cmds.append(("project", f"--theta={theta}", "--format", fmt))
    cmds.append(("project", "--theta", "60", "--degrees", "--format", "json"))
    cmds += [("project", "--theta", "1", "--trials", "2000", "--seed", "7", "--format", fmt) for fmt in FORMATS]

    bells = [
        ("singlet", None, "0", "1"),
        ("singlet", "xy", "0.3", "1.9"),
        ("psi+", None, "0", "2*pi/3"),
        ("phi-", "yz", "1", "1"),
        ("phi+", None, "-0.7", "2.6"),
    ]
    for (kind, plane, a, b), fmt in itertools.product(bells, FORMATS):
        cmds.append(("bell", "--kind", kind, *(("--plane", plane) if plane else ()), "--a", a, "--b", b, "--format", fmt))
    for fmt in FORMATS:
        cmds.append(("bell", "--kind", "singlet", "--a", "0.3", "--b", "1.9", "--trials", "5000", "--format", fmt))
    cmds.append(("bell", "--kind", "phi-", "--a", "1", "--b", "1", "--trials", "100", "--seed", "3", "--format", "json"))
    cmds.append(("bell", "--kind", "phi+", "--a", "30", "--b", "75", "--degrees", "--format", "json"))
    # 10**5 sampled trials, past many blocks of rng.BLOCK words, at two seeds
    for seed in ("7", "424242"):
        cmds.append(("project", "--theta", "2pi/3", "--trials", "100000", "--seed", seed, "--format", "json"))
        cmds.append(
            ("bell", "--kind", "singlet", "--a", "0", "--b", "pi/3", "--trials", "100000", "--seed", seed,
             "--format", "json")
        )

    for source, fmt in itertools.product(("prbox", "lhv", "quantum"), FORMATS):
        cmds.append(("chsh", "--source", source, "--format", fmt))
    cmds += [("chsh", "--source", "quantum", "--scan", "180", "--format", fmt) for fmt in FORMATS]
    for extra in (
        ("--kind", "phi+", "--angles", "0,pi/2,pi/4,3*pi/4"),
        ("--kind", "psi+", "--plane", "xy", "--angles", "0.1,1.2,2.3,3.4"),
        ("--angles", "0,pi,0,pi"),
        ("--kind", "phi+", "--angles", "0,0,0,pi"),
        # E(a,b) rounds to -0.9999999999999998 here
        ("--angles", "6.998155441665141,10.139748095254934,6.998155441665141,10.139748095254934"),
        ("--angles", "0,90,45,135", "--degrees"),
        ("--kind", "phi-", "--plane", "yz", "--scan", "60"),
        ("--kind", "psi+", "--scan", "7"),
    ):
        for fmt in ("json", "text"):
            cmds.append(("chsh", "--source", "quantum", *extra, "--format", fmt))

    strategies = ("quoin", "random", "classical:0", "classical:1", "classical:3", "classical:5")
    for strategy, mech, lanes in itertools.product(strategies, ("quoin", "quantum"), ("1", "3", "5", "8")):
        cmds.append(
            ("game", "simulate", "--strategy", strategy, "--mech", mech, "--lanes", lanes,
             "--games", "40", "--seed", "11", "--transcript", TRANSCRIPT, "--format", "json")
        )
    for seed, strategy in itertools.product((str(2**64 + 5), str(2**200 + 3)), ("quoin", "random", "classical:1")):
        cmds.append(("game", "simulate", "--strategy", strategy, "--games", "30", "--seed", seed,
                     "--transcript", TRANSCRIPT, "--format", "json"))
    cmds += [
        ("game", "simulate", "--games", "5000", "--transcript", TRANSCRIPT, "--format", "json"),
        ("game", "simulate", "--strategy", "random", "--games", "5000", "--mech", "quantum", "--format", "text"),
        ("game", "simulate", "--strategy", "classical:3", "--games", "5000", "--lanes", "8", "--format", "csv"),
        ("game", "simulate", "--games", "100", "--format", "text"),
        ("game", "simulate", "--strategy", "classical:2", "--games", "100", "--lanes", "4", "--format", "csv"),
    ]
    # the game grid: 300 games per strategy, mechanics, lane count and seed, each through the one block loop
    # with a transcript (its lines rendered from the block's rows) and without one (the tally alone)
    grid = itertools.product(("quoin", "random", "classical:3"), ("quoin", "quantum"), (1, 5, 8), (7, 424242))
    for (strategy, mech, lanes, seed), transcript in itertools.product(grid, (True, False)):
        cmds.append(
            ("game", "simulate", f"--strategy={strategy}", f"--mech={mech}", f"--lanes={lanes}", f"--seed={seed}",
             "--games=300", "--format=json", *(("--transcript", TRANSCRIPT) if transcript else ()))
        )

    # usage errors and refused inputs: exit 2
    cmds += [
        ("project", "--theta", "nan"),
        ("project", "--theta", "-3*pi/4"),
        ("project", "--theta", "inf"),
        ("project", "--theta", "three"),
        ("project", "--theta", "pi/0"),
        ("project", "--theta", "1", "--trials", "-1"),
        ("project", "--theta", "1", "--trials", str(2**31)),
        ("project",),
        ("project", "--theta", "1", "--seed", "abc"),
        ("bell", "--kind", "psi+", "--plane", "xz", "--a", "0", "--b", "1"),
        ("bell", "--kind", "bogus", "--a", "0", "--b", "1"),
        ("bell", "--kind", "singlet", "--a", "0"),
        ("bell", "--kind", "singlet", "--a", "nan", "--b", "1"),
        ("bell", "--kind", "singlet", "--a", "0", "--b", "1", "--trials", "-3"),
        ("chsh", "--source", "bogus"),
        ("chsh", "--source", "prbox", "--angles", "0,1,2,3"),
        ("chsh", "--source", "lhv", "--scan", "10"),
        ("chsh", "--source", "quantum", "--angles", "0,1,2"),
        ("chsh", "--source", "quantum", "--angles", "0,1,2,inf"),
        ("chsh", "--source", "quantum", "--scan", "1"),
        ("chsh", "--source", "quantum", "--scan", "5000"),
        ("chsh", "--source", "quantum", "--kind", "psi+", "--plane", "xz"),
        ("game", "simulate", "--lanes", "0"),
        ("game", "simulate", "--lanes", "9"),
        ("game", "simulate", "--games", "0"),
        ("game", "simulate", "--games", "-5"),
        ("game", "simulate", "--strategy", "bogus"),
        ("game", "simulate", "--strategy", "classical:x"),
        ("game", "simulate", "--seed", "-1"),
        ("game", "simulate", "--games", "10", "--transcript", "no/such/dir/t.jsonl"),
        ("game", "simulate", "--strategy", "classical:3", "--lanes", "2", "--games", "10", "--transcript", TRANSCRIPT),
        ("game", "play"),
        ("game", "play", "--strategy", "random"),
        ("bogus",),
        (),
    ]
    cmds += [("--help",), *((cmd, "--help") for cmd in ("project", "bell", "chsh", "game"))]
    return cmds


def outcome(argv) -> str:
    """sha256 of (exit code, stdout, stderr, transcript) of one command, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    transcript = None
    if os.path.exists(TRANSCRIPT):
        with open(TRANSCRIPT, encoding="utf-8") as fp:
            transcript = fp.read()
        os.remove(TRANSCRIPT)
    blob = json.dumps([code, out.getvalue(), err.getvalue(), transcript])
    return hashlib.sha256(blob.encode()).hexdigest()


COMMANDS = {" ".join(argv): argv for argv in _commands()}

PINNED = {
    'project --theta=0 --format json': '9f323d04fffa60edee8379bc1c4d33420830692a98294b09affd4899f2eaa9ab',
    'project --theta=0 --format text': '0c3f25d207e36e56b8672961f8924f5fef0f38bb73f5d4558767b3c38a12de44',
    'project --theta=0 --format csv': '6a1bc37a27aa4cb0338e5f9106d6cbe0cf605f215a9f029c61aad136a315da52',
    'project --theta=1 --format json': '2dfa8980dd2337c967acac6535cea32372fb38574f3a8cfa0f154c3d8f676c3e',
    'project --theta=1 --format text': '87145f96d40f0a0554e0953863f9299c72968f3e3be6b5498e30c5b027558aa1',
    'project --theta=1 --format csv': 'efb12222b0eb4ac1c679eeb63c4247e5b9d22ac1984de24239afd09cc6bfbba7',
    'project --theta=pi/3 --format json': '46bf52f52febc4181d1a69c831f3eef0959e0337af4ae570246f7883258b1799',
    'project --theta=pi/3 --format text': 'b515291af1128fd713e1e090a9ed55f03e9aafc4e25266d6810f9f2fb06552e7',
    'project --theta=pi/3 --format csv': 'f41fa4798fdf9b6552d41d05bcb7aab8fd9d6b8754a525cecff1ac2bc7f1820f',
    'project --theta=-3*pi/4 --format json': '3c1685a150f1b596ab50d9f4b78af4167bb6979805427c04b3f3ea9a886c867f',
    'project --theta=-3*pi/4 --format text': '8f2b6a04f2d03a19c58e806d1a075d2cf7a096fb2ab5274e5c2a2e3183f3b356',
    'project --theta=-3*pi/4 --format csv': 'd4fd08200153c87057bd848eae783dd4cf5f50b9f67deb2e741e3d34f5faba03',
    'project --theta 60 --degrees --format json': '46bf52f52febc4181d1a69c831f3eef0959e0337af4ae570246f7883258b1799',
    'project --theta 1 --trials 2000 --seed 7 --format json': 'b40453114aea32a93210f28da1d66556684ac9fb3dd0602effcc9799477a256e',
    'project --theta 1 --trials 2000 --seed 7 --format text': '58cec13a6315eebbb5d694d786f48af6740bca835bdac4989739dfa07b6c16ca',
    'project --theta 1 --trials 2000 --seed 7 --format csv': '0decdebcb1362496d754a62b6a136bb5ebc310f85c4cc835b07e9c2dcc6d3f84',
    'bell --kind singlet --a 0 --b 1 --format json': '28e7ef0e5328bd5c03e6475c8110126d5db4dfe1be8c9008b04622bc0342d2a7',
    'bell --kind singlet --a 0 --b 1 --format text': 'fad003a4654b97de64edef16dda5bb176f0549befa7837f394b12afe027953da',
    'bell --kind singlet --a 0 --b 1 --format csv': '23090abc9239e8b824bad19605538ab8428f687174cfe2ac9c38199a27104bdc',
    'bell --kind singlet --plane xy --a 0.3 --b 1.9 --format json': 'd5eb0f3984b6f4c2ef919f0426309d3d9e6b617666bd5d537d3516f0cf76434f',
    'bell --kind singlet --plane xy --a 0.3 --b 1.9 --format text': '1c3521a971c83d5459859655c37395372e82dc8ade3eb0a4ccab7c11aaa11c76',
    'bell --kind singlet --plane xy --a 0.3 --b 1.9 --format csv': 'a4c18ca865f63b136352c67cd157ad1bd72ce2de1677d2f5cbe41a60bf15cc2b',
    'bell --kind psi+ --a 0 --b 2*pi/3 --format json': 'e996d2caed527c0a55d84a89c54266e26d59f4f50bc1398b5f207866985025d2',
    'bell --kind psi+ --a 0 --b 2*pi/3 --format text': 'ef9da96757e603f4cea1905a2ac0687f4f83c17fad761ff3a1ba79996d9343f3',
    'bell --kind psi+ --a 0 --b 2*pi/3 --format csv': 'a2addd428c4e827dd9fe60385f0564c03eb2031c3451a359cb7d5ce37eea5eb9',
    'bell --kind phi- --plane yz --a 1 --b 1 --format json': 'ae1ff9b9275ce697e2d909ca21d158fe9c68e7966c8f8dcf94c5451c25926616',
    'bell --kind phi- --plane yz --a 1 --b 1 --format text': '9e93b5ba09e37205d24e6f05360c2a361f663f9a25681c6035d33939dd4c496e',
    'bell --kind phi- --plane yz --a 1 --b 1 --format csv': 'df00c5c7c3e6413dde7556704541268c65e62a48974f61c06b360ad741f9dc60',
    'bell --kind phi+ --a -0.7 --b 2.6 --format json': 'fd66abc30b1b978aef609c53a7ff7f854bc90f89489c666a110c9d563bdc5c1a',
    'bell --kind phi+ --a -0.7 --b 2.6 --format text': '9c32c70a745c57918a65acab6dcd119b95b3692a73a4473dce34864336e0038b',
    'bell --kind phi+ --a -0.7 --b 2.6 --format csv': 'e924ecd87b5f6ca5981c4ee00a9f996c5c40e56b12fcaced2c83aebe848e74b1',
    'bell --kind singlet --a 0.3 --b 1.9 --trials 5000 --format json': '5bf3f6795297af3325648882b831ef30788a0a5ce8f0d12c1489f4f086a6cbf7',
    'bell --kind singlet --a 0.3 --b 1.9 --trials 5000 --format text': '67c2ffce00d4ebfb6bb74da60d85f470ee97dd9f4b433cacd79982fde29f529c',
    'bell --kind singlet --a 0.3 --b 1.9 --trials 5000 --format csv': '43c4b5d2bf90e0e0a49ed9f9900a6cf42b7be608351e24ec5c0f5111970a92f3',
    'bell --kind phi- --a 1 --b 1 --trials 100 --seed 3 --format json': '32f372f94b0da0c24666737f6ff4d680d187691a2bd5f6c847154a2f19270aa1',
    'bell --kind phi+ --a 30 --b 75 --degrees --format json': '48d8a9e7f510299e72d9e57d45dcbe087fd9ae51072cdc1dfa3ecf41b6b43b81',
    'project --theta 2pi/3 --trials 100000 --seed 7 --format json': '7eb3761530494641f7cdd2c0410bd3c3dcde81d846f5f032f9ac2b17aee9feb5',
    'bell --kind singlet --a 0 --b pi/3 --trials 100000 --seed 7 --format json': '636c48340fdd786d6002f3e18035afb50c52680f95f74bd14f3a9548f4f7a5f4',
    'project --theta 2pi/3 --trials 100000 --seed 424242 --format json': '71f3e07c244305a68b522cc3fd0cd4c431bdf2caee32ed3d168d490249786311',
    'bell --kind singlet --a 0 --b pi/3 --trials 100000 --seed 424242 --format json': 'ae2ea4242d21a1b33c03dec06c5c0a18c33630e9f4b05b5899e455b740d5b524',
    'chsh --source prbox --format json': '914b9b67fe04db1cc359d76e47da483cf29ff38f9ce43a58c1acc73f79b57b76',
    'chsh --source prbox --format text': '8512985e597806a0ed268aef2d0c9f957cb8ab8b96fddf55341785ee03571c98',
    'chsh --source prbox --format csv': '1e259daea5fe0220999c61656574da5ad1997b064a9ce874d2c7ab13a987ebbf',
    'chsh --source lhv --format json': '3aa7b1fd79f4b32bd48b82867d8e81a20afe266c18f1315feb27ea42252f02c4',
    'chsh --source lhv --format text': '7ebfaec4139542d9e644c7306cb125de37e1bfdc8a5d3e56d4632b05f8fd516d',
    'chsh --source lhv --format csv': 'eaa69b61c4c6b635c9aa59dcd2dcdb428e3eb217586ffbe3af88cff8bc318661',
    'chsh --source quantum --format json': 'fae5e65a3028e6368a5e832d0babfcece111a8f08cdbc6a4b8f7bcae534958c0',
    'chsh --source quantum --format text': 'ef8882c7b4cc79eacc5d25c41b242dbe15574e28a26de034e8f5c3cb927022a5',
    'chsh --source quantum --format csv': 'd0d0612e22bfe6b2e80abe553344a0ab3f8ffe985a8d880fa050768fa807c06f',
    'chsh --source quantum --scan 180 --format json': '7f58afffd907c0f31d8c8a55acb269ba6141eb5e71ffb992d58b1074cd48e648',
    'chsh --source quantum --scan 180 --format text': '1974c32301fbb500453e4752c4bc0c5a6ddda1de7e072efd91800a87d5648528',
    'chsh --source quantum --scan 180 --format csv': '10a4f133ad19b1b356900b71273efdd894931dc0baf6cafe1bc9edbe79c904aa',
    'chsh --source quantum --kind phi+ --angles 0,pi/2,pi/4,3*pi/4 --format json': '768d87eb85100fe571e5fb5fc35bc9b01ce7db7787a448a7df28e73d6f75f4dd',
    'chsh --source quantum --kind phi+ --angles 0,pi/2,pi/4,3*pi/4 --format text': '4e8de2fd9f6d2987a06d13b05370d779100cd7f0115a48aa9b893e4063e23e6f',
    'chsh --source quantum --kind psi+ --plane xy --angles 0.1,1.2,2.3,3.4 --format json': '96a4b3776723f4d7bfacae6728a6b173c87895bbdf2dc9ee0f3983089d2e2fae',
    'chsh --source quantum --kind psi+ --plane xy --angles 0.1,1.2,2.3,3.4 --format text': '38894177e48b80180d1f637a404e7e9cc39f64834ab41df9651c2e678aac0e4c',
    'chsh --source quantum --angles 0,pi,0,pi --format json': '6099eb46450f257b34b323ab6dd8cc6b98de8fa03bc915e7f70af467a9544342',
    'chsh --source quantum --angles 0,pi,0,pi --format text': 'c10b644af5aee876a26987d3079830b276d7a988127fadd3ebeac9cad56f4f93',
    'chsh --source quantum --kind phi+ --angles 0,0,0,pi --format json': '6062aadca22cb6db7f772780c69182fe182908b034f10f47ddb6331b02638a1e',
    'chsh --source quantum --kind phi+ --angles 0,0,0,pi --format text': '8e75caf37dd55b65a36c9514f8b221a6bcb1dc24e83f3b915142d3b4e1506866',
    'chsh --source quantum --angles 6.998155441665141,10.139748095254934,6.998155441665141,10.139748095254934 --format json': '606f1e5a3cf43fd294d9faa3e3a9a1821b11898d907d5ff7d471084e058aaf91',
    'chsh --source quantum --angles 6.998155441665141,10.139748095254934,6.998155441665141,10.139748095254934 --format text': 'db40ed8aa5ea02c7d647629a676e1a3565152eff22d31b02d9ba607bc73217c1',
    'chsh --source quantum --angles 0,90,45,135 --degrees --format json': 'fae5e65a3028e6368a5e832d0babfcece111a8f08cdbc6a4b8f7bcae534958c0',
    'chsh --source quantum --angles 0,90,45,135 --degrees --format text': 'ef8882c7b4cc79eacc5d25c41b242dbe15574e28a26de034e8f5c3cb927022a5',
    'chsh --source quantum --kind phi- --plane yz --scan 60 --format json': '16200eecddd3bc396a0f03ab97f61861a1b31cd50ff59b6ef941286f3e985915',
    'chsh --source quantum --kind phi- --plane yz --scan 60 --format text': 'be9547b6b2a5cca5ac226f4ab70a6878a9169fc1fa93514604c696f6b15eae9d',
    'chsh --source quantum --kind psi+ --scan 7 --format json': 'b228f302b130bc32ce8afdc799752961aa432b62474804e4cd7d1a1fab492230',
    'chsh --source quantum --kind psi+ --scan 7 --format text': 'fa2c76877648127a676466c64300a247bf70367f7f8415f3765883b597cac5da',
    'game simulate --strategy quoin --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'ccc7efeb44bde49d8ff25490e9801f6f0389904cee4b0eaec4f0a8ffab480ba3',
    'game simulate --strategy quoin --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'f27fb1a651cc09174fdb6cb4627d471f514e8e9b7c08b7cd58b01b126b6678d3',
    'game simulate --strategy quoin --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'e71c56fdaf477c9885824c493e52ed4a1946c42f9bd1d7425ad03542a6a85030',
    'game simulate --strategy quoin --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '302b807dea0aba818ee839e062b8bac9ef4c4e834bfc0e15cfb2bd9bc428e3d5',
    'game simulate --strategy quoin --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'e4bddd8d9004b80ac97985a249ba893da2e88b2e5aa211d1ddc1aab5bc31716f',
    'game simulate --strategy quoin --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'dd8294204b1795bd6aec48bddf833e073a4080780968bdb0d2be4d49deae589a',
    'game simulate --strategy quoin --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'ac356209f3a5f335b2d3ac9e493d04de133d5b8c6fff0d31891562a07de38654',
    'game simulate --strategy quoin --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'b7045996f9b023b8e93ae467700af80444bda6957483979f4e364dadd3b3b1d8',
    'game simulate --strategy random --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'fe7a1a03dcfbd75bdc8c52830cbd341e3d0a1e4878b135a8e4343f84e51e1304',
    'game simulate --strategy random --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'be7920a4fa88732b570574bc2460bbce4e763bf6f58f27de465a26f5b0eeb44f',
    'game simulate --strategy random --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'b50e3570ee914de534d40afff583a88a3b504887cec181d0e4491f5772f872e0',
    'game simulate --strategy random --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '9c086464e6b6363331a6629606028b44c1ce0d3fdf624d3f0181c7768534608b',
    'game simulate --strategy random --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'd4d4a927e25f7e7da750434f05a06dd52ce54b4b9fa04573241c39207c7f8346',
    'game simulate --strategy random --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '09fa22274dba64841b17ea398f865b6e5b2e5cf5068d921445f9d3986f70b3a8',
    'game simulate --strategy random --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '0fd3cb257979b225897d5548cbc90b2f35dadd01d18d98385d515e0ab1d99d75',
    'game simulate --strategy random --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '1c2b027247c11c3c1aec946b7fa75c974042ff8b57022188946ec75f6d283b46',
    'game simulate --strategy classical:0 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '85807f4eae9f4988312e8444e0a380aad66c0b830ce3db37528efb51b2e97cf9',
    'game simulate --strategy classical:0 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'f891508eccbaae3954e645c8f46d5bd201aa70fd908d7082966e51057ce1188f',
    'game simulate --strategy classical:0 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'c9b1fe9f7121d05536df785460cba0901fdb12a5215cc13cdb1c5e88c7c32ce4',
    'game simulate --strategy classical:0 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'da91f28cb905ce447b9b474fc656dd6fc1c3b14af9c1cdb52f7b1ed6f69077f4',
    'game simulate --strategy classical:0 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'c8644dba6e7cc730a372b1ef8b84d8db802bbf0f0eb31bc89916a53df8f859c8',
    'game simulate --strategy classical:0 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'a9b864651db8adfede8f1a88053ec7e3e0ec32e5226e8ba1c44edafe0051a9e4',
    'game simulate --strategy classical:0 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '2aca5f77724f4ad67409addc1f4deba510b9ed34e5fb7d0c4c7a1fb309efc9c3',
    'game simulate --strategy classical:0 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'baaf48b76e2b260bd170f7831dab9b444639f71e544a3c08e4666fbeb42d7afe',
    'game simulate --strategy classical:1 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '17f6f9978a50aa8824bcdc0ad82f44473c4add3fbdac834604f7bac90cc57ae4',
    'game simulate --strategy classical:1 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '3351dec7aad08a26496e3bdc2ea09566668b922893130734a77c940e04b8b1a9',
    'game simulate --strategy classical:1 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '86e11fad1512e89442806a83a488cef34f718ec9f4ca7c011917675514622b87',
    'game simulate --strategy classical:1 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '2a46cd53f15b10a90263934d00d5e0256e1a225599f9d408b8237e2f18fdb313',
    'game simulate --strategy classical:1 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '04dc59c92ca510e25c2adee86553a13f1fb3d9a0d772179eb40b9647a721b9dc',
    'game simulate --strategy classical:1 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'b939c84c3fc816b4cac00c104667cd32e4add1f02608672dd9d6fc5c4becb0a7',
    'game simulate --strategy classical:1 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '4ca7681780b6c29b6d6dead50856696ff4bc6fdf560f66b50299656912b65ac2',
    'game simulate --strategy classical:1 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '16bec47670cb4a4625d4f8152b40867f9f42aadda0ccd33ae7be4c6f53c17ae9',
    'game simulate --strategy classical:3 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy classical:3 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'a6f615547724fb01f246000c4abc7dddcbc6d55de5e534285b855da613111cd1',
    'game simulate --strategy classical:3 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'd53bdce44656e4f14150468fb3fc46911922cb52b2fb4828d4978d5346fd44e3',
    'game simulate --strategy classical:3 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'ae4f78f50bdf97e2edaddfe851837d4c3cc3788161dec60556c1ef6727bb480a',
    'game simulate --strategy classical:3 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy classical:3 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '9f4595c73c9e35d47ab9d1ba9d82a4f5e197aabb6a5d043afddad867517ba3ab',
    'game simulate --strategy classical:3 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '0d4b045f947d1d432c5688a0bf187d11591e2db69ca562e8d5f33faf60c39855',
    'game simulate --strategy classical:3 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'dea9a483154ff7adbd83056f42269f722b1ed9a6119c22ddf41e9c86334b3bad',
    'game simulate --strategy classical:5 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '35cdb193d9d0d1e9a0215ea776d09202c08ecce1c911c5f8abf2735d00e1e94a',
    'game simulate --strategy classical:5 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'cbf13ff7f9e6914b4d785925a66ad031c402b617bcfc77c43d57c72e277a17cd',
    'game simulate --strategy classical:5 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'eebcd7ece6d784556dbc6f5c0b8e0f39d8ce4cb98628236fbaf49f5ee7b3d398',
    'game simulate --strategy classical:5 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '94394b3ca7846f0d6a0e3a7ed4fa27998770fdef7feb1325e8e1f64f5f5797f4',
    'game simulate --strategy classical:5 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '35cdb193d9d0d1e9a0215ea776d09202c08ecce1c911c5f8abf2735d00e1e94a',
    'game simulate --strategy classical:5 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'cbf13ff7f9e6914b4d785925a66ad031c402b617bcfc77c43d57c72e277a17cd',
    'game simulate --strategy classical:5 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'fe54a77e3ec81bde841b10a45dc877d2c78316182c2727451ccbb82da35d02c8',
    'game simulate --strategy classical:5 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'ad3f566aace9cda58050a9a5e2f53ef0b0843ce7a35f07c2bd2a83c0b427689b',
    'game simulate --strategy quoin --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': '3ad047fbe527d97c877146be64d16a1a69588fa9b1590acdf1e7a889d1f4e9c8',
    'game simulate --strategy random --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': 'ee8af91018ca09274d74027209bdb910b0a111b169e61d6de33a9f6239612039',
    'game simulate --strategy classical:1 --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': '572c40843b62165d9df159fe69d0ad0eff127898d1b22954f0b77cef5a99f454',
    'game simulate --strategy quoin --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': '10a219b78236ab841ce888d64a9622b945a7d94d06b75dcf0d27152b27aa0cef',
    'game simulate --strategy random --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': 'f303b05cf9c5e84487d1c727fcb26ea02b143498b8e2942cdd06504c1e36df10',
    'game simulate --strategy classical:1 --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': 'a4fb5e9eeff7cb3ec1cce24d6e3d7dfa78fbfd11cce99c35239702b3cf290c3e',
    'game simulate --games 5000 --transcript t.jsonl --format json': '888beae5c0250aef2ecf284dc83aa2e3df0e794e75afbc195a022eef2e10a846',
    'game simulate --strategy random --games 5000 --mech quantum --format text': 'd98ed7e2d4f00adad0a3f49f190b9d61aed3d1f0101f18e0acd0f4af250ea7ac',
    'game simulate --strategy classical:3 --games 5000 --lanes 8 --format csv': 'c30b65977e78b81d069ac7abdaad8b74e019d399408258ed82f126825247f589',
    'game simulate --games 100 --format text': '9b46c4f4541868233813c792df582e2c4311a0d85cb2d59fb50931c2f2f7efab',
    'game simulate --strategy classical:2 --games 100 --lanes 4 --format csv': 'cf5d874f06ad49b782a0da14fb52621efe274687bfa5fc76e3d6686c99b20175',
    'game simulate --strategy=quoin --mech=quoin --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': 'd0bc0cf9b2516c0671afd7bd539b690046dfc47e7783de46d6edfea47c40e829',
    'game simulate --strategy=quoin --mech=quoin --lanes=1 --seed=7 --games=300 --format=json': '4b494b52aa845f4154d9fecfdc4982df96b4acf46d12e3b6f0806bfd5291375d',
    'game simulate --strategy=quoin --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': 'de09124b2b32186960ef9ad9ca53913f94655a7910bb566086d344992f3682f3',
    'game simulate --strategy=quoin --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json': 'b4f7c5764818c611dacfe731b45df5450da22dfcc38cd644f2fb5f88d42703c7',
    'game simulate --strategy=quoin --mech=quoin --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': '07c48e44cc2a8bf7eb269ba7ee93111c2105ca21f16fc7fcf9ad5999de377881',
    'game simulate --strategy=quoin --mech=quoin --lanes=5 --seed=7 --games=300 --format=json': '33dc42d7545831ed06e94965657b9bdbecc8521972e47ddd6a300336eae9c123',
    'game simulate --strategy=quoin --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': '91cc3463f6ec50d52aac102a4bbe2873fad4fcc5200ebb838201a383b7ba8acc',
    'game simulate --strategy=quoin --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json': 'd55dee3aec1997570d2ef9c75b99bfdb9f490b21934203eabc84f7cf127bbf6e',
    'game simulate --strategy=quoin --mech=quoin --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': 'd69d51c9360f46dd8c363e32bf93f3804270e519f12719fca235b09759d7d3ea',
    'game simulate --strategy=quoin --mech=quoin --lanes=8 --seed=7 --games=300 --format=json': '2e25a3de8c22926048c11b36b16328a3efe9b5976ce8c0913b5d6c52ba992864',
    'game simulate --strategy=quoin --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': '8f1f3629e72f16030ac235afe55af1e5af3df44ce63ae9ee092855c4f81d4d29',
    'game simulate --strategy=quoin --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json': 'a1d3b718c198a0d44795fa1a1be6b6501156f20574b8621838d2eb422f4077c3',
    'game simulate --strategy=quoin --mech=quantum --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': '47b081ed6acacc73edcfb219bd55f0a30c4c496d70fe4e95bb0969cff41b4a1b',
    'game simulate --strategy=quoin --mech=quantum --lanes=1 --seed=7 --games=300 --format=json': '5eaff68f17b5fc7d0dc201c6159fc697b1e9c817487abe8025930059cb6bf394',
    'game simulate --strategy=quoin --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': '4d646e09b5a30824c857bc607fd845a004f4a6617a8a49756a12c68004524a12',
    'game simulate --strategy=quoin --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json': '4214934551af32cf63f88170a3bd9d25887cfde06cb3786648e9d1d8f6a64a1c',
    'game simulate --strategy=quoin --mech=quantum --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': '4f3862f2ceb2051d6fe44221395fd4e8228f99bd9684701dceb875813908673c',
    'game simulate --strategy=quoin --mech=quantum --lanes=5 --seed=7 --games=300 --format=json': 'bc9e84a368440eb3013af301b881426f24c83af184fe943682560bf033363624',
    'game simulate --strategy=quoin --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': '9513a88563b558281298b45689a1db80478134270133a42f64e6ff09af5d95c1',
    'game simulate --strategy=quoin --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json': 'bfe0e81fc5d2c85eba3d5ac304b684967f728a9dfdeaac2d66a9d8f402ade3dd',
    'game simulate --strategy=quoin --mech=quantum --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': 'ac2644249589ef06d2fc3a07da7257bb3a52e0e100974580712ab8e73d9ecd92',
    'game simulate --strategy=quoin --mech=quantum --lanes=8 --seed=7 --games=300 --format=json': 'b0ad5d9bf6949750dafc303d9b7d902ab1d16f1f356a27b650b7fd44f041f2f8',
    'game simulate --strategy=quoin --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': '904dff6ea9b3ed0b94b1e4d6dc92bf294d8d575294f9cb4c9b3f2beeea3a9e28',
    'game simulate --strategy=quoin --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json': '721f12f89caa00c768cbaab459b219e021a08875bdbe041392a3853190690cf9',
    'game simulate --strategy=random --mech=quoin --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': '901b9e1a26cebea72d1943187ca8567d3674994d13c478e55ec9938f0a48b1ae',
    'game simulate --strategy=random --mech=quoin --lanes=1 --seed=7 --games=300 --format=json': '1c3fb1409e3259d39df44987f65f5774f9920ac584a41da157f68a04b62bb0a6',
    'game simulate --strategy=random --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': '91e20664a6bc73322cb3b0d6081d6f65a9bc7efbef07164417016cabc307473d',
    'game simulate --strategy=random --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json': '117e1d5bb114d19580f131e6a25ca0fc9b9f0c92a1770e76aef4810946ef2b97',
    'game simulate --strategy=random --mech=quoin --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': '3f8f598d810051b8ed375c43056362a5cf71c1a26baf42ca3ce211092994d977',
    'game simulate --strategy=random --mech=quoin --lanes=5 --seed=7 --games=300 --format=json': 'af287616c343f592fec9c66b6987eebca3a6ddd003b5d27d0a5197d0be9ab2ab',
    'game simulate --strategy=random --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': '7ae878ccf5bd0c3ae3552f4b1927470086e49259878df4dc22fda59b630520c5',
    'game simulate --strategy=random --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json': '4b7590eeec866c711ca335fcb15bb8478a2bb2a3c21523ec2abd87beb5b92368',
    'game simulate --strategy=random --mech=quoin --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': 'a8c63b38bc599339fba7122062228ff6924c66e4c55ce34f080be1589cf8e614',
    'game simulate --strategy=random --mech=quoin --lanes=8 --seed=7 --games=300 --format=json': '521dc59981213e2458aa8271011ef09d35af9d3c41b8e065cd5e587ed6423510',
    'game simulate --strategy=random --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': 'f95f148e5db1fe13f8e6c611d181d444b20675ff21d6f91c5529bb882b540f06',
    'game simulate --strategy=random --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json': 'e472c636f53a3e2a6ef5f1b9e1106147d9d8b8aea43a8834ddfb9b70a59bb356',
    'game simulate --strategy=random --mech=quantum --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': '9907677970cfc8ff75452382739d03abb5d81010b422d96408ce8c697849aa37',
    'game simulate --strategy=random --mech=quantum --lanes=1 --seed=7 --games=300 --format=json': 'bc79655364ddd1a5c26a0079d7d28377ecdaaae5126373ab867dcc48c9193130',
    'game simulate --strategy=random --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': '5f80db152f86d2f63a00041cb59f6a6f742a1ac05a0e8d4a04e0dd6845e94003',
    'game simulate --strategy=random --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json': 'f0a5b2d5fceb4b558dca2544154cdb36f0d4bd21d56e6db290681f328486926a',
    'game simulate --strategy=random --mech=quantum --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': 'd9092f96e91b5a8f5895ee657b3c2f2a316139857b0ce11efc2739d5ffc9c05a',
    'game simulate --strategy=random --mech=quantum --lanes=5 --seed=7 --games=300 --format=json': 'a00f2916aff10e00c988faa9d7f7f96af2d26af643a57d8a1948ace0378696d3',
    'game simulate --strategy=random --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': '5071719177dbfee802dcc278869835aa304b8c9a68da9642096aed75f43e718c',
    'game simulate --strategy=random --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json': '9ada5eb8d175447d1f38a010034688484f664443a2ac82713086bb152236031a',
    'game simulate --strategy=random --mech=quantum --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': '1770466cf74543dcd2619a64595b659b4d6ee590abfc9e285eaf905639df33d3',
    'game simulate --strategy=random --mech=quantum --lanes=8 --seed=7 --games=300 --format=json': '9fdcf6971629008002f18e8081618fa3e17ca20c3bf54512e3111c5d1e3c77fc',
    'game simulate --strategy=random --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': '38f684fc3157c422ae0316c00fedeb8c3cf627f54ab25a3a1bda98a53fbb84f3',
    'game simulate --strategy=random --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json': '59c5fe2a7f2f0b4a7904003b5adda81725cb3072132209b503f13397a24e20f5',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=1 --seed=7 --games=300 --format=json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=1 --seed=424242 --games=300 --format=json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': '225913d82decd2972a9d238a63c7aed4893d77b0cb28833bcbf2770225d41945',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=5 --seed=7 --games=300 --format=json': '7d38742b55cb06cb43fad1cd07785e0a2004b96cd04a27cb460a20ccea41ece4',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': 'c39a1b696398cfe0a524750ab6b9d021239ad00bdb87d9383c23b623dfc82adb',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=5 --seed=424242 --games=300 --format=json': '21f6b310cc2a99edba64b02fec49c5eab9cfcb8b3b3411c66d887aced6d8fb64',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': '5c23a252afd14f026f254b33340d66657643eeb516935043669181a5077ab238',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=8 --seed=7 --games=300 --format=json': '41fe4a59cf7abca7b4ddd30f7132d87b4351703445e9afd7280404afa7e18a12',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': '35c35857bf6c31859d6643153d6031b8e1014c45e5256609127e2dbc9d7ddd67',
    'game simulate --strategy=classical:3 --mech=quoin --lanes=8 --seed=424242 --games=300 --format=json': '3ad3e3b42b9b70c2fe7c764ebf6381c74c018765f1f692e1d7e333c75add1a4f',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=1 --seed=7 --games=300 --format=json --transcript t.jsonl': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=1 --seed=7 --games=300 --format=json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json --transcript t.jsonl': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=1 --seed=424242 --games=300 --format=json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=5 --seed=7 --games=300 --format=json --transcript t.jsonl': '2bcf36cb81752eb83d409ea1da67eca949a95f24c3c0c5ff99bfed3f0532fc5b',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=5 --seed=7 --games=300 --format=json': '1d2162f26ef5eb0d87be379815c513329d5f86b5947c944ed56e353b96720062',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json --transcript t.jsonl': 'c88a2165c84058acaf41389cc7d48b8f33f16c83bfcade90b115fd86d6eea4f6',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=5 --seed=424242 --games=300 --format=json': '806903fead30735ac478cece62ffbca0c925e34c703934e98c1b804595cb4cf1',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=8 --seed=7 --games=300 --format=json --transcript t.jsonl': 'ac2c48680b0f7c6ca422017a2936b2f5ce0c7f3a6ccfcdf4641d57506ba2ddbe',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=8 --seed=7 --games=300 --format=json': '87081615d5d036730ec13ba23af2dff7bdba5763520384fc879b0ff0a5b61d51',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json --transcript t.jsonl': 'a88192cc1b4898a7b93040b31819e517ac7aabfbf4fa7077c26ea3357a9e2afd',
    'game simulate --strategy=classical:3 --mech=quantum --lanes=8 --seed=424242 --games=300 --format=json': '0247c5db935d5bb69c4153f0adfbcdcc39908dac6ae88fcf49709c25f60785e2',
    'project --theta nan': '48a7c02bce0593124ad65e3965fb60e1bcf7dfbaec81f8c22c290b9b92b708eb',
    'project --theta -3*pi/4': '17f82884a75fdd9af6ad84e739f800e92a5273f43a528fa8c332312e12db9bb8',
    'project --theta inf': 'b758d9cf0c371401ce5c0ec1a69a2e9524966bd34681b397f24c2e7a0b800eb3',
    'project --theta three': '9585f070678f8d66ad8360c7b1c19f67aa0543cd062174545d8b6e8d21b2ee66',
    'project --theta pi/0': 'c5097c477d3552e2125403f67c8dd7c5b6d6329fb3648841b842289f98cc679d',
    'project --theta 1 --trials -1': 'e3e92d74f7311ae47edc076ed6d935f494c757b5bb643a63fc64a68b478ecb7f',
    'project --theta 1 --trials 2147483648': 'a7b41dfd2b92439eee63b7d3dd22a7726ba124fa813a8652f3d130392ef6a35b',
    'project': 'ad626db907b7a1a8f85afb216783f468947b6da871389f7815453729bed1c9b2',
    'project --theta 1 --seed abc': '6d9d42dbafd7f5119065088f3705faf23aa72d7da491e2e56569454ebc4b8053',
    'bell --kind psi+ --plane xz --a 0 --b 1': 'f6f04ee7de8f01e7f6063c460eae18240253b11192727f03126c20c2d0b2ea2f',
    'bell --kind bogus --a 0 --b 1': '8c099db29c4cc342a22a2b0466dbd2ce86f7e16b5c15c7669719959ab5df4c2a',
    'bell --kind singlet --a 0': '3df203ada61346845107e81ac4a8e0173769c86437cb97a320eb1a95552baa58',
    'bell --kind singlet --a nan --b 1': '48a7c02bce0593124ad65e3965fb60e1bcf7dfbaec81f8c22c290b9b92b708eb',
    'bell --kind singlet --a 0 --b 1 --trials -3': 'ecfcef9fbb213bf5e6b8c2b7554303fe26f253457521eecbc9ea57afdff65820',
    'chsh --source bogus': '0a960269b4b3bde82515d230de5d3efc51b9e3ea9e7ac3bb4f5680319a94031f',
    'chsh --source prbox --angles 0,1,2,3': '58156c843bc466a236fc2c5fa94b35f1c69fb3ec1de69abdc9a9142f314b8ed5',
    'chsh --source lhv --scan 10': '8fbb1e41100d5f2f595e0dce64b7faf168c07e529fd9198adcdb0d1a0cfade3b',
    'chsh --source quantum --angles 0,1,2': '4eb20aa32a84824742c973d871bb7d415b510e72e0d12667d7704eea86075cd7',
    'chsh --source quantum --angles 0,1,2,inf': 'b758d9cf0c371401ce5c0ec1a69a2e9524966bd34681b397f24c2e7a0b800eb3',
    'chsh --source quantum --scan 1': '60f7200e9f0f4f369e2bc9195f3cb9b9abcf43f300fd855a5db1d6e11de4619e',
    'chsh --source quantum --scan 5000': 'cd4d1c603f88b6c3fa053ad38e07586e6bf945c49ba419d2e29e608bd608765a',
    'chsh --source quantum --kind psi+ --plane xz': 'f6f04ee7de8f01e7f6063c460eae18240253b11192727f03126c20c2d0b2ea2f',
    'game simulate --lanes 0': 'bcf5cb2c8ff0364f0378878d32042861076c5b56deba46e7c8aefdf4f6f88d7e',
    'game simulate --lanes 9': 'b660c553ba371867f3b758bf1f995c90d9ad906b52d26f38df5c7d211c9d4c9c',
    'game simulate --games 0': '23646809f21399df0a2bf880633798e7e33532057c1f8e92f4a32718dcfda383',
    'game simulate --games -5': 'e654785eba40a8a1c1616b9058216019771648becfacdea2ec07d7076af9c863',
    'game simulate --strategy bogus': 'bc32081aefbf3009f9b623cbc975b35854bfa5c75928bffdf480c76e764e0bc0',
    'game simulate --strategy classical:x': 'd91b96d6d5e43db3a2429b980e8feb85336be8a070ee4edd02dfce284611b5ad',
    'game simulate --seed -1': 'ba0aa701343e4e8c3d747154c83d54ded95e1d3a182ac57c94b27ac0ec0a4765',
    'game simulate --games 10 --transcript no/such/dir/t.jsonl': 'cd43369f4e3e645422d3d35b0d2b6222cd1a94319c672c22831afd64699b7ec3',
    'game simulate --strategy classical:3 --lanes 2 --games 10 --transcript t.jsonl': 'd25199719e6430144887b24b6cb13e60ffae9b2ac37af11691228cfd50b5ee47',
    'game play': '950102ae9f680c499ae2e4a2090a6876132e23296087887ae0f7b11f14227ec8',
    'game play --strategy random': '9a95d423d4472fcc6105e7130b9b8e600994f90576fd492aaf5163c931e86106',
    'bogus': 'a17ad09473e86ce0912569d1f933ca09e892a4760c6b0f71619b9106ec3bee00',
    '': '6d03329bc3e739b4c18c5ea820fa1865b37af8d5562bd42b2f0a4d7e8493fc38',
    '--help': '66470ec18a0f963972e5e6fe6792195d755bf446107c67f67b3d602b2578a725',
    'project --help': '5968e4490b2c99772f8d0b7aef6c3601ee6258132822cc9c1ada527cf168f225',
    'bell --help': '6eb53001c2ed8530b55f2866e9486be18563bac2a794a3fcf052cac6976dcdcb',
    'chsh --help': '8afc934b5667558d86bc40df5e866d5b2a382635164ddaf44cb9e0bc216e6f1d',
    'game --help': '37187a227fd2a0e2510c97f97d8c5874d52e912b736675ca56a0876bf0a840c4',
}


@pytest.mark.parametrize("cmd", list(COMMANDS))
def test_command_output_is_pinned(monkeypatch, tmp_path, cmd):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))  # `game play` needs a terminal
    assert outcome(COMMANDS[cmd]) == PINNED[cmd]


def test_every_command_is_pinned():
    assert len(COMMANDS) == len(_commands()) and set(COMMANDS) == set(PINNED)


# `game play` needs a terminal, so the interactive game is pinned through its injected IO:
# seed 11, 5 lanes, buying Bob's parity bit and then guessing even
INTERACTIVE_LINES = [
    "the dealer set your lanes to [0, 1, 0, 0, 1] (Bob's side is hidden)",
    'you flip your quoins per your bits and see: HHTTH',
    "Bob's message: his H count is odd (1)",
    'protocol guess: even',
    "Bob's lanes were [0, 1, 0, 1, 1]; the answer is even",
    'you win: net +4 chips',
]
INTERACTIVE_RECORD = '{"bob_bits": [0, 1, 0, 1, 1], "alice_bits": [0, 1, 0, 0, 1], "target_parity": "even", "bits_bought": 1, "guess": "even", "chips_start": 6, "chips_net": 4, "transcript": ["alice outcomes: HHTTH", "bob outcomes: HTTTT"]}'


def interactive() -> tuple[list[str], str]:
    said, answers = [], iter(["y", "even"])
    record = cli.run_interactive_game(11, QuoinMechanics.standard(), 5, lambda prompt: next(answers), said.append)
    return said, record.to_json()


def test_interactive_game_is_pinned():
    assert interactive() == (INTERACTIVE_LINES, INTERACTIVE_RECORD)


def row_rule(payload: dict) -> list[str]:
    """The csv columns of a json payload.

    Scalars stay, each scalar of a nested dict becomes a `key_sub` column, and
    lists, `schema` and `command` are dropped.
    """
    columns = []
    for key, value in payload.items():
        if isinstance(value, dict):
            columns += [f"{key}_{sub}" for sub, v in value.items() if not isinstance(v, (list, dict))]
        elif key not in ("schema", "command") and not isinstance(value, list):
            columns.append(key)
    return columns


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("cmd", [cmd for cmd, argv in COMMANDS.items() if argv[-2:] == ("--format", "csv")])
def test_csv_header_is_the_row_rule_of_the_json_payload(cmd):
    argv = COMMANDS[cmd]
    header = next(csv.reader(io.StringIO(stdout_of(argv))))
    assert header == row_rule(json.loads(stdout_of((*argv[:-1], "json"))))


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    sys.stdin = io.StringIO("")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        table = {cmd: outcome(argv) for cmd, argv in COMMANDS.items()}
    print("PINNED = {")
    for cmd, digest in table.items():
        print(f"    {cmd!r}: {digest!r},")
    print("}")
    lines, record = interactive()
    print("\nINTERACTIVE_LINES = [")
    for line in lines:
        print(f"    {line!r},")
    print("]")
    print(f"INTERACTIVE_RECORD = {record!r}")
    moved = [cmd for cmd, digest in table.items() if PINNED.get(cmd) != digest]
    if (lines, record) != (INTERACTIVE_LINES, INTERACTIVE_RECORD):
        moved.append("(the interactive game)")
    print(f"\n# {len(moved)} command(s) differ from PINNED:")
    for cmd in moved:
        print(f"#   {cmd}")
    sys.exit(1 if moved else 0)
