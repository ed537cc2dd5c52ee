"""Word builders that only the tests use."""

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
