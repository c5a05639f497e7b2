"""Random-stream contract v1 on the batched path: `game simulate` without --transcript.

That path is served by `monte_carlo`, which computes the draws block by block
with `rng.draws`. The digests below were recorded from the per-game
engine (`summarize(play_games(...))`) before the batched engine existed, over
the grid of `tests/test_stream_contract.py`; they must match unchanged.
"""

import hashlib
import itertools

import pytest

from qubitlab import cli

STRATEGIES = ("quoin", "random", "classical:3")
MECHANICS = ("quoin", "quantum")
LANES = (1, 5, 8)
SEEDS = (7, 424242)
GAMES = 300

# (strategy, mechanics, lanes, seed) -> (exit code, sha256 of stdout)
PINNED = {
    ('quoin', 'quoin', 1, 7): (0, '9c91cdf4f003d91760dcdc503a07f87fe67ce11448796c8d58df2d77a0b6b6b3'),
    ('quoin', 'quoin', 1, 424242): (0, '7a1f86912e04ba4cf8d015a77bdc04a7223edb6a760e37a036b1cea1f8d57cae'),
    ('quoin', 'quoin', 5, 7): (0, 'f2089a0e41fc672e871c1029635ec4c10dca156eb6cb82985e27541e6ed8a6be'),
    ('quoin', 'quoin', 5, 424242): (0, 'b87e24a696a0a26fb087e1b313b64db20a3f2eb7ab24add281c9d724abbd66b6'),
    ('quoin', 'quoin', 8, 7): (0, 'b6eda06563998604c6609af92e81626068a213dc763f13a11fd11efeb72c34e0'),
    ('quoin', 'quoin', 8, 424242): (0, '5dde05463d6cb69720f7c979934563dfee3db6db70cd0c0a229692c9ca468c5a'),
    ('quoin', 'quantum', 1, 7): (0, 'fb3f326e99d01011f454cab44a9eb397c544e87b1a9cea91185a4059cb479e8d'),
    ('quoin', 'quantum', 1, 424242): (0, '111e8d4ee479a60fc6f87c67731ff8e0b37c75dace7cb75569d266ec96defa80'),
    ('quoin', 'quantum', 5, 7): (0, '2d58ecf9d47c2fea292d3742b8af0176485676b51f0f5d2308af7eff3ae530fa'),
    ('quoin', 'quantum', 5, 424242): (0, '2e07501e88802bde4a10a3ef4c8eb547cd75783a531b70b59d7e5703e05a13ab'),
    ('quoin', 'quantum', 8, 7): (0, '0c8961b57221d99f1ed1591b2d003ca60ee2a33776f5beaa7e1cb064d47ba739'),
    ('quoin', 'quantum', 8, 424242): (0, '9ba5f20f55b86bf8ae8225e65656a3550025dd4fbc71e5da6ca9c8047031418c'),
    ('random', 'quoin', 1, 7): (0, 'be520fd324d8f177612be792e4e4e752ba4e45d41810884eabc3258b30e1cd4d'),
    ('random', 'quoin', 1, 424242): (0, '5bbca5a19a49781836ce96d4e6c99823a67cf4389cc1e15268d92af6c4377f98'),
    ('random', 'quoin', 5, 7): (0, '4ef0d90ed26ea0dafde5b833dad323fe25a52e87709a13785ff7a88e863a1636'),
    ('random', 'quoin', 5, 424242): (0, '4f4b096829f9538f77f82c1e9787550bff48727739fa1e0e2c23f8380d34f82e'),
    ('random', 'quoin', 8, 7): (0, 'daf928b022d54ea73de675f9078bf638a46d52b1fed952bb81a26ed7675ed12b'),
    ('random', 'quoin', 8, 424242): (0, '9502ad191c5341c83ce9bec7c1671ef4ec7f5c7d4bcae9e4a062814712b305a3'),
    ('random', 'quantum', 1, 7): (0, 'cd11406721736dd0815cde3473d70b351c34568281a10171884c5efdb74057ed'),
    ('random', 'quantum', 1, 424242): (0, 'a2eabe9e3f13bab53f38c778dcb14c8c6de4539efc399fe73b72b16498575401'),
    ('random', 'quantum', 5, 7): (0, '0e667bf5a9691f500dd3f331a9b907a173305cf4edf7f05eabc3c4311aed85c7'),
    ('random', 'quantum', 5, 424242): (0, 'a3cead5e2afcb5937ca7242f47b7bedd4c8c12aafbf9c9f1deaa68eda7d06c23'),
    ('random', 'quantum', 8, 7): (0, '9f1eb5bb68fdcba241f89e32ab6b416c6802a4febd54f9a407ad92d48af2edbe'),
    ('random', 'quantum', 8, 424242): (0, '07a7df1272c66d2bb57f79bb8a11f22f775b4faa44d361cd6048dd59639c4f16'),
    ('classical:3', 'quoin', 1, 7): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('classical:3', 'quoin', 1, 424242): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('classical:3', 'quoin', 5, 7): (0, 'bff22b13c7f8615217b8fe6efece5f12919b08b3fce4addf72ae1065c6d49de3'),
    ('classical:3', 'quoin', 5, 424242): (0, 'ae95770cb9faddc423e51ffaea88ae0daa38eb695a9bc5d891c0ea70ae4b40e9'),
    ('classical:3', 'quoin', 8, 7): (0, 'c3c3f663178b951d33f801e66b8ff0f1e5cbd638969c313346200c07d525e4ff'),
    ('classical:3', 'quoin', 8, 424242): (0, '343d9d1aeb756d812343eb2756c346d3ab61f85e47605ffb353e1882a60d6fa4'),
    ('classical:3', 'quantum', 1, 7): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('classical:3', 'quantum', 1, 424242): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('classical:3', 'quantum', 5, 7): (0, 'e10f6dce6ea2a34b2215b3965ea673a6fd0a5368485ef83a3a5ca9e3c33c28f9'),
    ('classical:3', 'quantum', 5, 424242): (0, '7e58f7fe4e69b0394cb5316fae1178595a5623e2d75c635a9e19c429096a91f7'),
    ('classical:3', 'quantum', 8, 7): (0, 'ca9a0ab8d3bec330e05c770bd707a37fe67ea0be15de027f573c039f36c6fac8'),
    ('classical:3', 'quantum', 8, 424242): (0, '3073c5d2bb2bc1e8769192d5c6328b346543f99fe6d94b59b4e47e406307cf0e'),
}


@pytest.mark.parametrize("strategy,mech,lanes,seed", list(itertools.product(STRATEGIES, MECHANICS, LANES, SEEDS)))
def test_game_simulate_bytes_without_transcript(capsys, strategy, mech, lanes, seed):
    argv = [
        "game", "simulate", f"--strategy={strategy}", f"--mech={mech}", f"--lanes={lanes}",
        f"--seed={seed}", f"--games={GAMES}", "--format=json",
    ]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[strategy, mech, lanes, seed]
