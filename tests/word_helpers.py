"""Word builders and circle helpers that only the tests use."""

from circle_ifs.certifier import UniversalWordResult
from circle_ifs.circle_maps import Arc, LiftMap
from circle_ifs.ifs_core import IFS
from circle_ifs.symbolic import Word


def all_words_concatenated(k: int, depth: int) -> Word:
    """Concatenation of every word of length <= depth, in lexicographic order.

    Prefix-dense to `depth` by construction; handy for building test
    sequences with a dense shift orbit prefix.
    """
    letters: list[int] = []
    for n in range(1, depth + 1):
        for idx in range(k**n):
            digits = []
            v = idx
            for _ in range(n):
                digits.append(v % k + 1)
                v //= k
            letters.extend(reversed(digits))
    return Word(tuple(letters), k)


def concat(*words: Word) -> Word:
    """The words one after another, over the largest of their alphabets."""
    return Word(sum((w.letters for w in words), ()), max(w.k for w in words))


def capture_time(res: UniversalWordResult, ifs: IFS, z: float) -> int | None:
    """First t <= |word| with the prefix branch sending z into the target."""
    pos = float(z) % 1.0
    if res.target.contains(pos):
        return 0
    for t, a in enumerate(res.word.letters, start=1):
        pos = float(ifs.generators[a - 1].lift(pos)) % 1.0
        if res.target.contains(pos):
            return t
    return None


def contains_arc(outer: Arc, inner: Arc) -> bool:
    """Whether `inner` lies inside `outer`, both traversed counterclockwise."""
    if outer.length >= 1.0:
        return True
    offset = (inner.start - outer.start) % 1.0
    return offset + inner.length <= outer.length


def inverse_eval(f: LiftMap, y: float) -> float:
    """The circle point f^-1(y) in [0, 1)."""
    return f.inverse_lift(y) % 1.0
