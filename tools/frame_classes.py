"""Write src/goedellab/_frame_classes.py: one Kripke frame per
isomorphism class, for each logic of goedellab.modal up to its world cap.

    PYTHONPATH=src python tools/frame_classes.py

The labeled frames come from the generators below, in the order a labeled
search from one world meets them.  The first frame of each orbit under
relabeling is the orbit's entry, and the entries of a size are written in
the order they were met.  So the first labeled frame with a model is the
entry of its class, and goedellab.modal.find_model, sweeping the table,
finds that labeled search's witness.  GL on 6 worlds is 130,023 labeled
frames in 318 orbits.
"""

import os
from itertools import permutations

from goedellab import modal

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "goedellab", "_frame_classes.py")

HEADER = '''"""One Kripke frame per isomorphism class, the frames that
goedellab.modal.find_model sweeps.  Generated by tools/frame_classes.py;
do not edit by hand.

FRAMES[logic][n - 1] holds the frames of n worlds as fixed-width hex codes
of ceil(n * n / 4) digits each.  Bit a * n + b of a code is set iff world a
sees world b.  Each code is the first frame of its class that a labeled
search from one world meets, and the codes of a size are in the order it
meets them, so the search's witness is that labeled search's.  Classes per
size: GL 1, 2, 5, 16, 63, 318 (OEIS A000112); K 2, 10, 104, 3044
(A000595); K4 2, 8, 39, 242.
"""

FRAMES = {
'''


# Frames are kept as succ-bitmask tuples: succ[w] has bit v set iff wRv.


def gl_frames(max_n: int):
    """All strict partial orders on {0..n-1} for n from 1 to max_n,
    sizes ascending, each exactly once.  Element k joins an existing
    order with a predecessor set P (closed under earlier predecessors) and
    a successor set S (closed under earlier successors) such that P x S
    already lies in the order; then P, S are exactly k's neighborhoods and
    the extension is again transitive, which makes the construction
    canonical."""

    def exact(target: int, n: int, succ: list[int]):
        if n == target:
            yield n, tuple(succ)
            return
        # P is down-closed iff no world outside P has a successor in P
        down_closed = [
            p
            for p in range(1 << n)
            if not any(succ[x] & p for x in range(n) if not p >> x & 1)
        ]
        up_closed = [
            s
            for s in range(1 << n)
            if all(succ[x] & ~s == 0 for x in range(n) if s >> x & 1)
        ]
        for p in down_closed:
            for s in up_closed:
                if p & s:
                    continue
                if any(s & ~succ[x] for x in range(n) if p >> x & 1):
                    continue
                new_succ = [succ[x] | (p >> x & 1) << n for x in range(n)] + [s]
                yield from exact(target, n + 1, new_succ)

    for target in range(1, max_n + 1):
        yield from exact(target, 0, [])


def k_frames(max_n: int, transitive: bool):
    """All relations (transitive ones if asked) on {0..n-1} for n from 1
    to max_n, sizes ascending, each in ascending code order."""
    for n in range(1, max_n + 1):
        mask = (1 << n) - 1
        for bits in range(1 << (n * n)):
            # bit a*n + b of `bits` is the pair (a, b)
            succ = tuple(bits >> (a * n) & mask for a in range(n))
            if transitive and any(
                succ[b] & ~s for s in succ for b in range(n) if s >> b & 1
            ):
                continue
            yield n, succ


def orbit(succ: tuple[int, ...]) -> set[int]:
    """The codes of every relabeling of a frame."""
    n = len(succ)
    pairs = [(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1]
    return {sum(1 << (pi[a] * n + pi[b]) for a, b in pairs) for pi in permutations(range(n))}


def classes(frames) -> list[list[int]]:
    """Per size, the code of the first frame of each orbit, in the order
    the orbits are first met."""
    seen: dict[int, set[int]] = {}
    reps: dict[int, list[int]] = {}
    for n, succ in frames:
        code = sum(s << (a * n) for a, s in enumerate(succ))
        if code not in seen.setdefault(n, set()):
            seen[n] |= orbit(succ)
            reps.setdefault(n, []).append(code)
    return [reps[n] for n in sorted(reps)]


def main() -> None:
    lines = [HEADER]
    for logic in modal.LOGICS:
        if logic == "GL":
            frames = gl_frames(modal.GL_MAX_WORLDS)
        else:
            frames = k_frames(modal.K_MAX_WORLDS, logic == "K4")
        lines.append('    "%s": (\n' % logic)
        for n, codes in enumerate(classes(frames), 1):
            width = -(-n * n // 4)
            text = "".join("%0*x" % (width, c) for c in codes)
            chunks = ['"%s"' % text[i : i + 72] for i in range(0, len(text), 72)]
            lines.append("        " + "\n        ".join(chunks) + ",\n")
        lines.append("    ),\n")
    lines.append("}\n")
    with open(OUT, "w") as fh:
        fh.write("".join(lines))


if __name__ == "__main__":
    main()
