"""A fast slice of the byte corpus, pinned: the six seed-0 toy streams at
32x32 (three fusion modes, two policies) that `tools/corpus.py` builds.
Each stream and its recons must keep their sha256, and each stream must
decode to its recons. A change that alters any of these bytes must say
so and re-pin them; the whole 48-stream corpus stays a two-checkout
comparison."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bnvc.codec import decode_sequence, encode_sequence

ROOT = Path(__file__).resolve().parents[1]

# name: (stream sha256, recons sha256)
PINNED = {
    "toy_butterfly_NEAR_32x32": (
        "80fc315944dce2c3558dbf33f9a5c0d8cf25b7053a6391e4c8a8496d9848fa2d",
        "df0d124f2105d901328a5a5f1e51508b133b0079da29ac5cff3040f4e9ccbbfe",
    ),
    "toy_butterfly_FURTHER_32x32": (
        "330e1950535e4a91851a1c6b7a3305f9bf73ba1a768d2f823d3309b3372ad921",
        "1b7cade69f1852cd933425b30f8bd3ceb45fdef352963d632a1ff24a7185cf24",
    ),
    "toy_together_NEAR_32x32": (
        "f4ae7b4fa9677cfef0715f657807f87db7e564ee035a793e41dd4d65f2f49839",
        "6fe60c149fc7946ada0bf7e8cd4efdce804c6b5674baa121f65962e7a43ea6b0",
    ),
    "toy_together_FURTHER_32x32": (
        "ea582fada381faf0d70ba2a08151d5df4cbf9f7a222012575be18556964ce7cc",
        "977619cf3ca7ff8205b32c3da75ad9f891cd122fe5b2da1c599bc263b0d40ed7",
    ),
    "toy_independent_NEAR_32x32": (
        "3b697cc39f9b7c5e7a21c53a3c19382ca48458c718276262a121834a9e38fef3",
        "a59c6a9eb274f53cc172cf32fbf40eaf312aadbddb7b51c8c68d61dbcc9107da",
    ),
    "toy_independent_FURTHER_32x32": (
        "8d2f8dfd6c020cd8d09b0467a89a61f89827d73a59e5e1d1999a49e534c5c194",
        "5f012267d50a3149679701b58262ac9c7392652beaca912ebaab13f8b007331b",
    ),
}


@pytest.fixture(scope="module")
def streams():
    """{name: (frames, model, policy)} of the pinned streams, from the corpus tool itself."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "tools" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT))  # corpus() imports codecbench
        for name, frames, model, policy in corpus.corpus():  # the toy streams come first
            if name in PINNED:
                found[name] = (frames, model, policy)
            if len(found) == len(PINNED):
                return found
    pytest.fail(f"tools/corpus.py no longer yields {sorted(set(PINNED) - set(found))}")


@pytest.mark.parametrize("name", PINNED)
def test_pinned_stream_bytes_and_round_trip(streams, name):
    frames, model, policy = streams[name]
    data, _, recons = encode_sequence(frames, model, policy)
    decoded, _ = decode_sequence(data, model, expected_policy=policy)
    np.testing.assert_array_equal(decoded, recons)
    got = (hashlib.sha256(data).hexdigest(), hashlib.sha256(recons.tobytes()).hexdigest())
    assert got == PINNED[name]
