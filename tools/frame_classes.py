"""Write src/goedellab/_frame_classes.py: one Kripke frame per
isomorphism class, for each logic of goedellab.modal up to its world cap.

    PYTHONPATH=src python tools/frame_classes.py

The labeled frames come from goedellab.modal's own generators.  The first
frame of each orbit under relabeling contributes the least code in the
orbit; the codes of a size are written in ascending order.  GL on 6 worlds
is 130,023 labeled frames in 318 orbits.
"""

import os
from itertools import permutations

from goedellab import modal

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "goedellab", "_frame_classes.py")

HEADER = '''"""One Kripke frame per isomorphism class, for the class pass of
goedellab.modal.find_model.  Generated by tools/frame_classes.py; do not
edit by hand.

FRAMES[logic][n - 1] holds the frames of n worlds as fixed-width hex codes
of ceil(n * n / 4) digits each.  Bit a * n + b of a code is set iff world a
sees world b.  Each code is the least over all relabelings of its frame,
and the codes of a size ascend.  Classes per size: GL 1, 2, 5, 16, 63, 318
(OEIS A000112); K 2, 10, 104, 3044 (A000595); K4 2, 8, 39, 242.
"""

FRAMES = {
'''


def orbit(succ: tuple[int, ...]) -> set[int]:
    """The codes of every relabeling of a frame."""
    n = len(succ)
    pairs = [(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1]
    return {sum(1 << (pi[a] * n + pi[b]) for a, b in pairs) for pi in permutations(range(n))}


def classes(frames) -> list[list[int]]:
    seen: dict[int, set[int]] = {}
    reps: dict[int, list[int]] = {}
    for n, succ in frames:
        code = sum(s << (a * n) for a, s in enumerate(succ))
        if code not in seen.setdefault(n, set()):
            codes = orbit(succ)
            seen[n] |= codes
            reps.setdefault(n, []).append(min(codes))
    return [sorted(reps[n]) for n in sorted(reps)]


def main() -> None:
    lines = [HEADER]
    for logic in modal.LOGICS:
        cap = modal.GL_MAX_WORLDS if logic == "GL" else modal.K_MAX_WORLDS
        lines.append('    "%s": (\n' % logic)
        for n, codes in enumerate(classes(modal._frames(logic, 1, cap)), 1):
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
