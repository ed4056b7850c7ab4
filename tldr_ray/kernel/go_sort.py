"""Deterministic emulation of Go's unstable ``sort.Sort``.

The reference's centrality ranking sorts the kept edge slice ascending
by weight with ``sort.Sort`` and then reverses it
(/root/reference/tldr.go:204-206, sort.go:3-15,31-35). ``sort.Sort`` is
UNSTABLE, so equal-weight edges end up in an algorithm-specific
permutation — and the golden file ``result_centrality.txt`` encodes that
permutation (quirk Q9, SURVEY.md §2.5): the corpus has weight ties at
the very top of the centrality order (two srcs share max weight 58, two
more share 54).

``go_sort`` transliterates the Go >=1.19 standard-library pdqsort
(sort/zsortinterface.go: insertion sort <=12, heap-sort limit fallback,
Tukey-ninther pivoting, partial insertion sort, partitionEqual,
deterministic xorshift breakPatterns) — verified to reproduce the
reference's golden centrality tie order exactly. The Go <=1.18
intro-sort does NOT match the goldens, which pins the reference's golden
generation to a Go >=1.19 toolchain. The sort is a pure function of
(initial order, comparator), hence deterministic.
"""

from __future__ import annotations


def go_sort(data: list, less) -> None:
    """In-place unstable sort with Go >=1.19 ``sort.Sort`` (pdqsort) semantics."""
    n = len(data)
    if n <= 1:
        return
    limit = n.bit_length()
    _pdqsort(data, less, 0, n, limit)


# ---------------------------------------------------------------------------
# pdqsort (Go 1.19+ sort/zsortinterface.go)
# ---------------------------------------------------------------------------

_INCREASING, _DECREASING, _UNKNOWN = 1, 2, 0


class _XorShift:
    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        r = self.state
        r ^= (r << 13) & 0xFFFFFFFFFFFFFFFF
        r ^= r >> 7
        r ^= (r << 17) & 0xFFFFFFFFFFFFFFFF
        self.state = r
        return r


def _pdqsort(data, less, a, b, limit):
    MAX_INSERTION = 12
    was_balanced = True
    was_partitioned = True
    while True:
        length = b - a
        if length <= MAX_INSERTION:
            _insertion_sort(data, less, a, b)
            return
        if limit == 0:
            _heap_sort(data, less, a, b)
            return
        if not was_balanced:
            _break_patterns(data, a, b)
            limit -= 1

        pivot, hint = _choose_pivot(data, less, a, b)
        if hint == _DECREASING:
            _reverse_range(data, a, b)
            pivot = (b - 1) - (pivot - a)
            hint = _INCREASING

        if was_balanced and was_partitioned and hint == _INCREASING:
            if _partial_insertion_sort(data, less, a, b):
                return

        if a > 0 and not less(data[a - 1], data[pivot]):
            mid = _partition_equal(data, less, a, b, pivot)
            a = mid
            continue

        mid, already_partitioned = _partition(data, less, a, b, pivot)
        was_partitioned = already_partitioned
        left_len, right_len = mid - a, b - mid
        was_balanced = min(left_len, right_len) >= length // 8
        if left_len < right_len:
            _pdqsort(data, less, a, mid, limit)
            a = mid + 1
        else:
            _pdqsort(data, less, mid + 1, b, limit)
            b = mid


def _partition(data, less, a, b, pivot):
    data[a], data[pivot] = data[pivot], data[a]
    i, j = a + 1, b - 1
    while i <= j and less(data[i], data[a]):
        i += 1
    while i <= j and not less(data[j], data[a]):
        j -= 1
    if i > j:
        data[j], data[a] = data[a], data[j]
        return j, True
    data[i], data[j] = data[j], data[i]
    i += 1
    j -= 1
    while True:
        while i <= j and less(data[i], data[a]):
            i += 1
        while i <= j and not less(data[j], data[a]):
            j -= 1
        if i > j:
            break
        data[i], data[j] = data[j], data[i]
        i += 1
        j -= 1
    data[j], data[a] = data[a], data[j]
    return j, False


def _partition_equal(data, less, a, b, pivot):
    data[a], data[pivot] = data[pivot], data[a]
    i, j = a + 1, b - 1
    while True:
        while i <= j and not less(data[a], data[i]):
            i += 1
        while i <= j and less(data[a], data[j]):
            j -= 1
        if i > j:
            break
        data[i], data[j] = data[j], data[i]
        i += 1
        j -= 1
    return i


def _partial_insertion_sort(data, less, a, b):
    MAX_STEPS = 5
    SHORTEST_SHIFTING = 50
    i = a + 1
    for _ in range(MAX_STEPS):
        while i < b and not less(data[i], data[i - 1]):
            i += 1
        if i == b:
            return True
        if b - a < SHORTEST_SHIFTING:
            return False
        data[i], data[i - 1] = data[i - 1], data[i]
        if i - a >= 2:
            j = i - 1
            while j >= 1:
                if not less(data[j], data[j - 1]):
                    break
                data[j], data[j - 1] = data[j - 1], data[j]
                j -= 1
        if b - i >= 2:
            j = i + 1
            while j < b:
                if not less(data[j], data[j - 1]):
                    break
                data[j], data[j - 1] = data[j - 1], data[j]
                j += 1
    return False


def _break_patterns(data, a, b):
    length = b - a
    if length >= 8:
        random = _XorShift(length)
        modulus = 1 << length.bit_length()
        idx = a + (length // 4) * 2 - 1
        for i in range(3):
            other = random.next() & (modulus - 1)
            if other >= length:
                other -= length
            data[idx - 1 + i], data[a + other] = data[a + other], data[idx - 1 + i]


def _choose_pivot(data, less, a, b):
    SHORTEST_NINTHER = 50
    MAX_SWAPS = 4 * 3
    l = b - a
    swaps = [0]
    i = a + (l // 4) * 1
    j = a + (l // 4) * 2
    k = a + (l // 4) * 3
    if l >= 8:
        if l >= SHORTEST_NINTHER:
            i = _median_adjacent(data, less, i, swaps)
            j = _median_adjacent(data, less, j, swaps)
            k = _median_adjacent(data, less, k, swaps)
        j = _median(data, less, i, j, k, swaps)
    if swaps[0] == 0:
        return j, _INCREASING
    if swaps[0] == MAX_SWAPS:
        return j, _DECREASING
    return j, _UNKNOWN


def _order2(data, less, a, b, swaps):
    if less(data[b], data[a]):
        swaps[0] += 1
        return b, a
    return a, b


def _median(data, less, a, b, c, swaps):
    a, b = _order2(data, less, a, b, swaps)
    b, c = _order2(data, less, b, c, swaps)
    a, b = _order2(data, less, a, b, swaps)
    return b


def _median_adjacent(data, less, a, swaps):
    return _median(data, less, a - 1, a, a + 1, swaps)


def _reverse_range(data, a, b):
    i, j = a, b - 1
    while i < j:
        data[i], data[j] = data[j], data[i]
        i += 1
        j -= 1


def _insertion_sort(data, less, a, b):
    for i in range(a + 1, b):
        j = i
        while j > a and less(data[j], data[j - 1]):
            data[j], data[j - 1] = data[j - 1], data[j]
            j -= 1


def _sift_down(data, less, lo, hi, first):
    root = lo
    while True:
        child = 2 * root + 1
        if child >= hi:
            break
        if child + 1 < hi and less(data[first + child], data[first + child + 1]):
            child += 1
        if not less(data[first + root], data[first + child]):
            return
        data[first + root], data[first + child] = data[first + child], data[first + root]
        root = child


def _heap_sort(data, less, a, b):
    first, lo, hi = a, 0, b - a
    for i in range((hi - 1) // 2, -1, -1):
        _sift_down(data, less, i, hi, first)
    for i in range(hi - 1, 0, -1):
        data[first], data[first + i] = data[first + i], data[first]
        _sift_down(data, less, lo, i, first)
