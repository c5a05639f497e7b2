"""Random-stream contract v1: the game output a fixed command and seed must reproduce.

The digests below were recorded from the implementation that defined contract
v1 (dealer `(seed, 0, g)`, mechanics `(seed, 1, g)`, strategy `(seed, 2, g)`;
see README "Conventions"). A change that alters them changes the contract: it
must bump the contract version and re-record this table on purpose.
"""

import hashlib
import itertools

import pytest

from qubitlab import cli
from qubitlab.quoin import QuoinMechanics

STRATEGIES = ("quoin", "random", "classical:3")
MECHANICS = ("quoin", "quantum")
LANES = (1, 5, 8)
SEEDS = (7, 424242)
GAMES = 300

# (strategy, mechanics, lanes, seed) -> (exit code, sha256 of stdout, sha256 of the transcript file)
PINNED = {
    ('quoin', 'quoin', 1, 7): (0, 'fc41455a9171703b26851936dd91c9057924fc43f050d641834be2d871661400', '5303bbd41c1f30b60b49e06906b855e8b72af529cc07789f621a93f6184fec83'),
    ('quoin', 'quoin', 1, 424242): (0, '16eed29f8a3343dccd2e32a39cd6ab87e3931d57d3c8c9979f9df5718483c0da', '1a27c290defff12679973eb0d80dbaecb704c21a65043fc4260415809907dcf2'),
    ('quoin', 'quoin', 5, 7): (0, 'b4e8cd7aeabb00ae9f6e3cccdfbcbbf18365a7f84fa3b8a71533c8c326b4e33b', '25352ddabaeff9523da7488a738650b5dc89ce7dedc7f77049b0fcbdeccb7989'),
    ('quoin', 'quoin', 5, 424242): (0, '6579c54fa8b470fcc5dd241aa86d6651ec36ace9af337bbdd928b13a76c37943', '8864afb1ac8220c5b86b66049054056be7e4662cf37bb72d1e597afbe348c337'),
    ('quoin', 'quoin', 8, 7): (0, '1a3e53dc532b4776ec9bffb5fc83f06d16a0fabad03685800ffa2aea765fa05d', '73355037911c1b402b0417c7dcd9baa7506fc6255723f2a7a656c3a7b7b6db7b'),
    ('quoin', 'quoin', 8, 424242): (0, 'e9e737f0ccedb6f3cd3bccd95ad6ab6dc3ed8d4e3aaa71b871d62e7d1eda35f7', '5ae7eecda10e915ed4e1f5d3d48b50bc717104ec7cb95cec57f31feef9993d55'),
    ('quoin', 'quantum', 1, 7): (0, 'c8eaf0467ba9718b713903fe20b799e130f29d5152451ada2ebd6b74c4a6e85f', '26ff46d0cf10f7e7186e896f5e7af8e0477f64588a741fa3f7451170301a2163'),
    ('quoin', 'quantum', 1, 424242): (0, 'a5e4eb4c6238793e95b6103b64492455745c4c3d845df68a4e4c3848de3552ad', '69ee8dc119b2f1c4c6d21eda4ae7ff6c5b1b6d09e5ed9fb78f45667594e06ff5'),
    ('quoin', 'quantum', 5, 7): (0, 'a9f8b63105b5935f35c08e1a8eb09bf926903f00c488232fe05bb9515198c324', 'cfa40b1b2bb2a3093d09f0ca0cbef13648a68b5b7985f432726f13e1442b693e'),
    ('quoin', 'quantum', 5, 424242): (0, '72e09a9712c3fe080cf04c408c27c1fe0793e607c11ead1d9d0d60dd314d60db', 'b653dae049b1ca3edaa801d415e5bd0bfa4f057029adc7a217d31228f6490d0f'),
    ('quoin', 'quantum', 8, 7): (0, 'b6c84d5de9a8b27cede4083d4bba1e0d255c4ba2dce4074f0c689c4eb625336a', 'b06c3bf234c26a4f7499e791b3781e6db0840af15e3a1c15883062e15a56827b'),
    ('quoin', 'quantum', 8, 424242): (0, '7287e7ebd8a739e7ba90643038606503f099748249fad6f44695849f6829bd7a', '9f6d4921c26df398783101a57599de546ca400d22d781850b1aeed68d248869b'),
    ('random', 'quoin', 1, 7): (0, 'ba6e1e25beffcf3b34b77a882ec08673126155964208a2181b003fe23f531578', 'a8de438a5268c40cdd43dbd6689f904ac203d7158af6ac933ce2667d28086509'),
    ('random', 'quoin', 1, 424242): (0, '65434251c63b5f1588e65d2da823cba5b5ca7d577dbe0a63d8830486dca0f001', 'acc9022a4417a50da79a65b52afa8943075b5341a4542bbeb1ab3894c2d8a463'),
    ('random', 'quoin', 5, 7): (0, 'fcf85c70cc51c94a7afeb9cfef7f1c265fcea59cd33d8b2026c4ad9f728c80ec', '858f7d79069d783c610c53a9a3c2c96b3ec0fb17c16877790d33344d60af9b40'),
    ('random', 'quoin', 5, 424242): (0, '83218ba55e7f3bc5fa911e8a4f461fe2d56c88ca6294aa6ce79bfb549090cfcd', 'd376f5b4df08011a719006fc2882f52a5f3b935ebc21d30afa5d9f1ac2482a7e'),
    ('random', 'quoin', 8, 7): (0, '5fa55de27577f564bb93f106706110301fb1457e67ec6e30e3a4122e8763db5f', '6d7526a673061ff4fac6d9515ab77e916a96f3abe920669c12b56828d38bcae0'),
    ('random', 'quoin', 8, 424242): (0, '9dc0f2062f6ec98ae691627724a2d2beb13d5ff550c4e5ae9d98fc459cb3d803', '38386bf2ca0d604a3007450ff90b628cdf4606c476494da9d532b0ae6e697d4b'),
    ('random', 'quantum', 1, 7): (0, '3185b7382df14111506a41050dadd247f052557bc63c822d44ff973bfb5d3606', 'a8de438a5268c40cdd43dbd6689f904ac203d7158af6ac933ce2667d28086509'),
    ('random', 'quantum', 1, 424242): (0, 'abd96e899af591a913cb23861ba407d71ec260eb2c00a250fc31f6da3b035a73', 'acc9022a4417a50da79a65b52afa8943075b5341a4542bbeb1ab3894c2d8a463'),
    ('random', 'quantum', 5, 7): (0, '82eab25508eadc08d191556b8381c27104dade1089585c5987b969558dcbe0de', '858f7d79069d783c610c53a9a3c2c96b3ec0fb17c16877790d33344d60af9b40'),
    ('random', 'quantum', 5, 424242): (0, 'bb2443e3d82744139060490793d07702f3e82b9c10dc13c374a29641e6210385', 'd376f5b4df08011a719006fc2882f52a5f3b935ebc21d30afa5d9f1ac2482a7e'),
    ('random', 'quantum', 8, 7): (0, '663e4316e47e5804ebd11cf363e4f62cd95e552e87f9f102ba6a22b07b88e023', '6d7526a673061ff4fac6d9515ab77e916a96f3abe920669c12b56828d38bcae0'),
    ('random', 'quantum', 8, 424242): (0, 'd8b1615b579c542957875036f45a44441242f26051c0f8b975249a918a66bd8b', '38386bf2ca0d604a3007450ff90b628cdf4606c476494da9d532b0ae6e697d4b'),
    ('classical:3', 'quoin', 1, 7): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', None),
    ('classical:3', 'quoin', 1, 424242): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', None),
    ('classical:3', 'quoin', 5, 7): (0, '883894656d6b663acfc6eeb3f416e9e9e61fcb3666d21bdb0761255b28f92d57', '8ea53453393aec07576482742a5d24bff11608d1bd8aa15e9e9f709623503507'),
    ('classical:3', 'quoin', 5, 424242): (0, 'bf22d83a1729105b8e3b8fb29e43e794f38861373d40eb27b5531442fe9f43c4', 'f987f4e78f562b74a74896768ce210d732296cfe4eaeaccdf7498e4526affd35'),
    ('classical:3', 'quoin', 8, 7): (0, '5d15b81450bf32c4f81bc567ba9a5799c4fbba94ddb8f4e06e6415f904a203cd', 'd4a511567d8562edd9489e7150967a5f05864871f2b6cd9dee597971d8331cf5'),
    ('classical:3', 'quoin', 8, 424242): (0, '118239cf207c4a9f7d84805712d26d7a992df7c783d70d000e837d6648a4e2f0', 'd05ed36c2848861ea2adc54628b328a4f177af212c98a75169461ab1320cd0dd'),
    ('classical:3', 'quantum', 1, 7): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', None),
    ('classical:3', 'quantum', 1, 424242): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', None),
    ('classical:3', 'quantum', 5, 7): (0, '107a2b646c880f46c474d023a0e65205ffecd041a2322c1c555b94599317c9cd', '8ea53453393aec07576482742a5d24bff11608d1bd8aa15e9e9f709623503507'),
    ('classical:3', 'quantum', 5, 424242): (0, '3d3d896db1c47313d8c52a36ad21bdff32df1975973406d23471330cf711c559', 'f987f4e78f562b74a74896768ce210d732296cfe4eaeaccdf7498e4526affd35'),
    ('classical:3', 'quantum', 8, 7): (0, '667521f18bf4d3ebdb52578a1d9888ab47b40ab98d365eabf22b5b75f08b85e6', 'd4a511567d8562edd9489e7150967a5f05864871f2b6cd9dee597971d8331cf5'),
    ('classical:3', 'quantum', 8, 424242): (0, 'f4f3f0a880286f499dd681749596b7ad7d034cb60ce4dcdf82be7a8ddcb8b506', 'd05ed36c2848861ea2adc54628b328a4f177af212c98a75169461ab1320cd0dd'),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate(capsys, tmp_path, monkeypatch, strategy, mech, lanes, seed):
    """Run `game simulate --format json --transcript games.jsonl`; return its pinned triple."""
    monkeypatch.chdir(tmp_path)
    argv = [
        "game", "simulate", f"--strategy={strategy}", f"--mech={mech}", f"--lanes={lanes}",
        f"--seed={seed}", f"--games={GAMES}", "--format=json", "--transcript", "games.jsonl",
    ]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    path = tmp_path / "games.jsonl"
    transcript = _sha(path.read_bytes()) if path.exists() else None
    return code, _sha(out.encode()), transcript


@pytest.mark.parametrize("strategy,mech,lanes,seed", list(itertools.product(STRATEGIES, MECHANICS, LANES, SEEDS)))
def test_game_simulate_bytes(capsys, tmp_path, monkeypatch, strategy, mech, lanes, seed):
    got = simulate(capsys, tmp_path, monkeypatch, strategy, mech, lanes, seed)
    assert got == PINNED[strategy, mech, lanes, seed]


INTERACTIVE_SEED_11 = [
    "the dealer set your lanes to [1, 1, 1, 1, 1] (Bob's side is hidden)",
    'you flip your quoins per your bits and see: HTHTH',
    "Bob's message: his H count is even (0)",
    'protocol guess: odd',
    "Bob's lanes were [0, 0, 0, 1, 0]; the answer is odd",
    'you lose: net -6 chips',
]
INTERACTIVE_RECORD_11 = '{"bob_bits": [0, 0, 0, 1, 0], "alice_bits": [1, 1, 1, 1, 1], "target_parity": "odd", "bits_bought": 1, "guess": "even", "chips_start": 6, "chips_net": -6, "transcript": ["alice outcomes: HTHTH", "bob outcomes: HTHHH"]}'


def test_interactive_lines():
    said = []
    answers = iter(["y", "even"])
    record = cli.run_interactive_game(
        11, QuoinMechanics.standard(), 5, lambda prompt: next(answers), said.append
    )
    assert said == INTERACTIVE_SEED_11
    assert record.to_json() == INTERACTIVE_RECORD_11

