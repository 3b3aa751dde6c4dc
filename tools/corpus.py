"""Rebuild the byte corpus and print the sha256 of every stream and its recons.

    python3 tools/corpus.py > corpus.json

Run from anywhere; bnvc is imported from this checkout's src/ and the
benchmark inputs from its codecbench/. The corpus holds 48 streams:

* the toy model's seed-0 weights in each of the 3 fusion modes, under
  both duplication policies, coding the 5-frame synth sequence of seed 0
  at 32x32, 48x40 and 36x44 (width x height): 18 streams;
* the toy butterfly model's seed-0 weights at n_ref 1 and 2, under both
  policies, coding the same sequence at 32x32: 4 streams;
* the long128_butterfly input and the 12 clips64_together clips, each
  with its workload's model and policy, at seeds 41 and 42: 26 streams.

Every stream is decoded back and must equal the encoder's recons. A
short training run follows: `train_toy` from the toy model's seed-0
weights, for 10 steps on the train32_toy workload's seed-41 dataset.

Standard output is one JSON object. It maps each stream's name to the
sha256 of its bytes and of its recons, and "train_toy" to the sha256 of
the run's losses as little-endian float64. So comparing the output of
two checkouts shows whether a change altered any stream byte or any
training bit. Progress goes to standard error. The exit status is 1 if
any decode differs from its recons.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_SIZES = ((32, 32), (48, 40), (36, 44))  # (width, height)
FEW_REFS = (1, 2)
WORKLOAD_SEEDS = (41, 42)
TRAIN_STEPS = 10


def corpus():
    """Yield (name, frames, model, policy) for every stream of the corpus."""
    from bnvc.fusion import FusionMode
    from bnvc.model import CodecModel, ModelConfig
    from bnvc.policies import DuplicationPolicy
    from bnvc.synth import generate_sequence
    from codecbench.workloads import Clips64Together, Long128Butterfly

    for fusion in FusionMode:
        model = CodecModel(replace(ModelConfig.toy(), fusion=fusion), seed=0)
        for policy in DuplicationPolicy:
            for w, h in TOY_SIZES:
                frames = generate_sequence(w, h, 5, seed=0)
                yield f"toy_{fusion.value}_{policy.name}_{w}x{h}", frames, model, policy
    for n_ref in FEW_REFS:
        model = CodecModel(ModelConfig.toy(n_ref=n_ref), seed=0)
        for policy in DuplicationPolicy:
            yield f"toy_butterfly_nref{n_ref}_{policy.name}_32x32", generate_sequence(32, 32, 5, seed=0), model, policy
    long128, clips64 = Long128Butterfly(), Clips64Together()
    long128_model, clips64_model = long128.build(), clips64.build()
    for seed in WORKLOAD_SEEDS:
        yield f"long128_s{seed}", long128.inputs(seed), long128_model, DuplicationPolicy.NEAR
        for i, (frames, policy) in enumerate(clips64.inputs(seed)):
            yield f"clips64_s{seed}_{i}", frames, clips64_model, policy


def train_losses_sha256() -> str:
    """sha256 of the little-endian float64 losses of the short training run."""
    from bnvc.training import train_toy
    from codecbench.workloads import Train32Toy

    workload = Train32Toy()
    dataset, _ = workload.inputs(WORKLOAD_SEEDS[0])
    log = train_toy(workload.build(), dataset, workload.train_config(TRAIN_STEPS))
    losses = [e["loss"] for e in log.entries]
    return hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


def main() -> int:
    for path in (str(ROOT / "src"), str(ROOT)):
        sys.path.insert(0, path)
    from bnvc.codec import decode_sequence, encode_sequence

    out, bad = {}, []
    for name, frames, model, policy in corpus():
        data, _, recons = encode_sequence(frames, model, policy)
        decoded, _ = decode_sequence(data, model, expected_policy=policy)
        if decoded.tobytes() != recons.tobytes():
            bad.append(name)
        out[name] = {
            "stream_sha256": hashlib.sha256(data).hexdigest(),
            "recons_sha256": hashlib.sha256(recons.tobytes()).hexdigest(),
        }
        print(f"# {name}: {len(data)} bytes", file=sys.stderr, flush=True)
    out["train_toy"] = {"losses_sha256": train_losses_sha256()}
    print(f"# train_toy: {TRAIN_STEPS} steps", file=sys.stderr, flush=True)
    for name in bad:
        print(f"# {name}: decode differs from the encoder's recons", file=sys.stderr)
    print(json.dumps(out, sort_keys=True))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
