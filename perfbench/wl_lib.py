"""`lib`: in-process calls into every library layer, one round of each
of the codec (`wl_arith`), modal (`wl_modal`) and proof-checking
(`wl_proof`) mixes, shuffled together.

Why: these are the calls a Python user of goedellab makes, without the
CLI's interpreter start.  The codec's scan, materialization and decode
and the modal search take most of the time; the kernel, audit and meta
calls, which cost milliseconds each, make up most of the ops, so they
set the median.  The latency of each op kind is reported too, so a
change that speeds one part and slows another shows there.
"""

from __future__ import annotations

from wl_arith import Arith
from wl_modal import Modal
from wl_proof import Proof

# proof rounds per lib round: enough that the kernel, audit and meta
# calls are about half of all ops
PROOF_ROUNDS = 5


class Lib:
    def __init__(self, G):
        self.arith, self.modal, self.proof = Arith(G), Modal(G), Proof(G)

    def warmup(self, rng):
        return self.arith.warmup(rng) + self.modal.warmup(rng) + self.proof.warmup(rng)

    def round(self, rng):
        ops = self.arith.round(rng) + self.modal.round(rng)
        for _ in range(PROOF_ROUNDS):
            ops += self.proof.round(rng)
        rng.shuffle(ops)
        return ops
