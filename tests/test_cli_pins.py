"""Byte pins of the CLI: exit code, stdout, stderr and transcript of a fixed command set.

Each command runs in-process through `cli.main` in an empty directory, with a
relative transcript path, no terminal on stdin and COLUMNS=80. The sha256 of
its four outputs is pinned. A deliberate output change re-records the table,
which this prints with the commands whose digest moved listed below it:

    PYTHONPATH=src python tests/test_cli_pins.py
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
    'game simulate --strategy quoin --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '12cfac10eed929e17261157cd917d3f37c1488339a7a9f280f4853df03ea0dde',
    'game simulate --strategy quoin --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '29dcac32e709b4eded8bf8ecc764c80754bdb1f17a8049ebf982248e3d5c262d',
    'game simulate --strategy quoin --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': 'ff4f8c72278ff2ea23ecda16a30b22c3d9e480219d8fff26dbd171f66fc939ff',
    'game simulate --strategy quoin --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '0e2eee46467ed02703e3af0f5d2d3da34c2084c598b8d098c0975a4d088d050a',
    'game simulate --strategy quoin --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '60dbaaa92748b2ce505ac2a53cb1009a7728736ac7d20069183458b6b0422c6d',
    'game simulate --strategy quoin --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '90fa86e2814720d61d91b91fd650f72586c7c9eabbbc9949149fd80b38497d95',
    'game simulate --strategy quoin --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '31f1b9c5061682ae4121b9d5872aba4570c57319b439df5c9e559a6ebac861fd',
    'game simulate --strategy quoin --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '0f7c3b80f65d73fff34acde1cbe7c146833f23c9e7e14b1a432b677060da5590',
    'game simulate --strategy random --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '8dda34225a1e51e0cf1e93baa4abce402f49cd7367e7b9a13ddf6b79412a6bd4',
    'game simulate --strategy random --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '3ecd8c7280f71a290e85a9a91dd7ddd369bf16a9e196a3fbc03c71b250b13ee3',
    'game simulate --strategy random --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '36e69dbede1a6d49f445add7ecfb2d3a548123842066364f83d76ab88e02d727',
    'game simulate --strategy random --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '73198cead43c3d79a237542adf2b5776a1e7c6d7e3f0827db4d149d1fd062682',
    'game simulate --strategy random --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '64fc607c83c32ee85c83b9a21bd0e741a602394a920bab7423358a153842896e',
    'game simulate --strategy random --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '6b16a19fb7f28a716148e630456d66fec60822430c09ab192550108c88beda09',
    'game simulate --strategy random --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '014f3fc6113198ab81715eb87db12a1086631e6b2ee551478fc14c950782e4b4',
    'game simulate --strategy random --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '897cf8441fcc879cdda6acb57d1e8933cff2d919650595ffbac5d20363bfe579',
    'game simulate --strategy classical:0 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '050020d745fc8ef1857f1959f1af460acc85cd1249e49672bbdda0030e1de825',
    'game simulate --strategy classical:0 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '3cc1caf0e6b0c6888cc5a035d457b05dda242db1199ec7701312795fdec5e8e6',
    'game simulate --strategy classical:0 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '9acc8e01ee02ace7d831f5e2418fa056647db05cc459e7d385d359ce8a1868b1',
    'game simulate --strategy classical:0 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'a64207bd3b5475cde8d53f829b3155965c2cbac7a6fd1d4a050f6815853eb7fc',
    'game simulate --strategy classical:0 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'ad9561624d69d7c63a756e3cfe3e1560347a8bfe50ac59fef1c80da502e2bbbe',
    'game simulate --strategy classical:0 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'b0e82d5f9f43f39cc4b003d6f2d0e0d0cac72c4a5249bd68cf1082a74851cac2',
    'game simulate --strategy classical:0 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '0afaf8e0fd85ffc164d39c5e60fc9489ed5e627febcb0abca36a742292770a76',
    'game simulate --strategy classical:0 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '32e29f6947364d0120cc5d836d7fdf2fce72a5dde34b590a06f2320cd1431235',
    'game simulate --strategy classical:1 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '5bf2612c4876a1d778d55fb176f83394fe510f84dd538c8719fef1b41f210d93',
    'game simulate --strategy classical:1 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '525cfcd9ca85196aedef9175b5a457d362e1b30456c55ea5dd03fb93d52e5ab9',
    'game simulate --strategy classical:1 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '966d2fa11ada809c6ff64065c088dccf04c0a7cc878725e3b6e29d6677189c1c',
    'game simulate --strategy classical:1 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '9918781a0855b345f61b94baeb6bdc80b83323443f71c70d6b04fd661b48fd69',
    'game simulate --strategy classical:1 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': 'b9df43fd7254dca5df071926664a287161d0cd0180586ae82b7aab8f85e25a4f',
    'game simulate --strategy classical:1 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '19994c3007594481bc8a6a559960c7b85c9460114a42b6a9757abdf0f4e4f186',
    'game simulate --strategy classical:1 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '1588335d71372bcf89de6e74774c2c07e9acf9dbeff82cc0acb2d4e3ff030c59',
    'game simulate --strategy classical:1 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '39c712fcddfcce57c241af257548fa0affd071270cc11f888428d38636cfd6a0',
    'game simulate --strategy classical:3 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy classical:3 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '63e84ba264dc0c580cda0a3cd8641ac8542651cc0f4d47ebc11137ee27dd4545',
    'game simulate --strategy classical:3 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '86f25c1f2f041f2d903b9474afebc33dbe7e46312af4b037eeb9b581c3d77579',
    'game simulate --strategy classical:3 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '7cc2c94433167a5a76a1591d508cb4b72ad7d4ef65efde74fb7b1c40028d00cc',
    'game simulate --strategy classical:3 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '2a1e7160bdbc3409c5aa15134fe7780897b4290951b9a40f61ae9cad8d9559b1',
    'game simulate --strategy classical:3 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': '250d99c90ff21f6b07d2132d9c94ece0147ad892119a9ec4c92ce21fe13eb474',
    'game simulate --strategy classical:3 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '3eb9378b245f5764bbaf33257a64f8915b5f02c05c89985c17547f6043c11464',
    'game simulate --strategy classical:3 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '953ccdf30e68082b3b6456822e08c49ac9e613cd531223103f325c508c461765',
    'game simulate --strategy classical:5 --mech quoin --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '35cdb193d9d0d1e9a0215ea776d09202c08ecce1c911c5f8abf2735d00e1e94a',
    'game simulate --strategy classical:5 --mech quoin --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'cbf13ff7f9e6914b4d785925a66ad031c402b617bcfc77c43d57c72e277a17cd',
    'game simulate --strategy classical:5 --mech quoin --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '9fb8a796185971823064d75d03bd3d1adf2e66474b4aa86c25999e98eeff4a5a',
    'game simulate --strategy classical:5 --mech quoin --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': 'c8d02c8ad21ebfa7e9f02c332bcb6fc8ba2d4997d1ee26a9d88d20edc93e651c',
    'game simulate --strategy classical:5 --mech quantum --lanes 1 --games 40 --seed 11 --transcript t.jsonl --format json': '35cdb193d9d0d1e9a0215ea776d09202c08ecce1c911c5f8abf2735d00e1e94a',
    'game simulate --strategy classical:5 --mech quantum --lanes 3 --games 40 --seed 11 --transcript t.jsonl --format json': 'cbf13ff7f9e6914b4d785925a66ad031c402b617bcfc77c43d57c72e277a17cd',
    'game simulate --strategy classical:5 --mech quantum --lanes 5 --games 40 --seed 11 --transcript t.jsonl --format json': '11068de5807bb78c9b12481b064b2e8befd14b80f2ddc29729c6a0eddd3cc9ff',
    'game simulate --strategy classical:5 --mech quantum --lanes 8 --games 40 --seed 11 --transcript t.jsonl --format json': '8645fe71b1bc1099116b4755f6c42d63822125c7c10fd141a8cef97306b2f65e',
    'game simulate --strategy quoin --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': 'ecacbd749ca8f2bf7e983855810d5804650649735f507b5ec46c320126660376',
    'game simulate --strategy random --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': 'f727e12d64abd5b8d8e317dad7f30ad681b54b1585a6ea61ec49298ea0247ea3',
    'game simulate --strategy classical:1 --games 30 --seed 18446744073709551621 --transcript t.jsonl --format json': 'df9414389a6f83d7b2d00f84df5fa7dda899d1db026551bce27e2a4263416e18',
    'game simulate --strategy quoin --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': 'cd9db5af9ace44f57096d4a4ffc72464ed605069b299fe779e647e1a79293a7c',
    'game simulate --strategy random --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': 'b80872a532034fab6150b1f048d5487442442c482bc118d13375c22bee50a221',
    'game simulate --strategy classical:1 --games 30 --seed 1606938044258990275541962092341162602522202993782792835301379 --transcript t.jsonl --format json': 'd1b89bd87f61c97a4ca7e04ed620d8e1539f316cdb776c5bb0b8e3b597ec33d3',
    'game simulate --games 5000 --transcript t.jsonl --format json': '1bf76653403acc58522eb44cb032c698c606ee8c7d1d81ac7083ac18926cb49d',
    'game simulate --strategy random --games 5000 --mech quantum --format text': 'ab72cae0963e05180c52cb1b7c54a24724e7a400dc4c4c76618b5762f538bacb',
    'game simulate --strategy classical:3 --games 5000 --lanes 8 --format csv': 'b77454cf8fafbd4e835926ef5acfde4ce95ec852cabecd4699d96435ebde767c',
    'game simulate --games 100 --format text': '9b46c4f4541868233813c792df582e2c4311a0d85cb2d59fb50931c2f2f7efab',
    'game simulate --strategy classical:2 --games 100 --lanes 4 --format csv': '02c12513328856614c04ee98e0267f581fa6c41bf0bc181c8cdd3ed08ea22362',
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
    'game --help': '12d1a321ba334a113911caf975bc9189a038fe82eecaa2eb87e061e906830523',
}


@pytest.mark.parametrize("cmd", list(COMMANDS))
def test_command_output_is_pinned(monkeypatch, tmp_path, cmd):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))  # `game play` needs a terminal
    assert outcome(COMMANDS[cmd]) == PINNED[cmd]


def test_every_command_is_pinned():
    assert len(COMMANDS) == len(_commands()) and set(COMMANDS) == set(PINNED)


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
    moved = [cmd for cmd, digest in table.items() if PINNED.get(cmd) != digest]
    print(f"\n# {len(moved)} command(s) differ from PINNED:")
    for cmd in moved:
        print(f"#   {cmd}")
