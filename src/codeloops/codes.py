"""Binary codewords and doubly even codes over GF(2).

A codeword is a subset of the coordinate positions {1, ..., m}; addition is
symmetric difference.  A code is the span of a list of linearly independent
generators.  Everything downstream (sign tables, loops, representation
search) sits on top of the handful of operations here: weights, meet
weights, spans, coordinate classes, and the doubly even test.

Words are int bitmasks, coordinate i at bit i-1: a weight is a popcount,
a sum is an xor and a meet is an and.  A Codeword keeps its degree and
its mask and builds the support frozenset only when .support is read; the
span, the weights, the classes and the doubly even test read the masks,
and the coordinate classes are kept as masks.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator

MAX_DEGREE = 128
# a 2^16 span of degree-128 Codewords takes about 10 MB; each further generator doubles it
MAX_SPAN_DIMENSION = 16


class InvalidCodeError(ValueError):
    """Malformed codeword, code, or code literal."""


class NotDoublyEvenError(InvalidCodeError):
    """Code has a span element of weight not divisible by 4."""

    def __init__(self, witness: "Codeword"):
        self.witness = witness
        super().__init__(
            f"not doubly even (weight {witness.weight})"
        )


class InternalInvariantError(RuntimeError):
    """A structural invariant failed; indicates a defect, not bad input."""


_new = object.__new__
_set = object.__setattr__  # Codeword refuses plain assignment


def _as_int(value, name: str) -> int:
    """The plain int of an integer (a numpy integer, a bool), by operator.index, or refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidCodeError(f"{name} {value!r} is not an integer") from None


def _check_in_range(value: int, name: str, top: int) -> int:
    """The int of an integer in 1..top, anything else refused; name names it in the message."""
    number = value if type(value) is int else _as_int(value, name)
    if not 1 <= number <= top:
        raise InvalidCodeError(f"{name} {value} out of range 1..{top}")
    return number


class Codeword:
    """A subset of {1..degree}, the support of a GF(2) vector.

    Stored as the degree and one int bitmask, bit i-1 set iff coordinate i
    is in the support, so weight, addition, equality and hashing are int
    operations.  The support frozenset is a view, built on first read.
    Codeword(degree, support) validates every coordinate; from_mask takes
    the bits 1..degree of any int.  Instances are immutable.
    """

    __slots__ = ("degree", "_mask", "_support")

    def __init__(self, degree: int, support: Iterable[int]):
        _set(self, "degree", degree)
        # checked in the caller's order, so a refusal names the first bad
        # coordinate given, whatever the hash order of a set of them
        _set(self, "_support", support if isinstance(support, frozenset) else tuple(support))
        _set(self, "_mask", None)
        self.__post_init__()

    def __post_init__(self):
        # runs on every construction, from __init__ and from from_mask
        degree = self.degree
        if type(degree) is not int or not 1 <= degree <= MAX_DEGREE:  # no call for a valid int
            degree = _check_in_range(degree, "degree", MAX_DEGREE)
            _set(self, "degree", degree)
        if self._mask is None:
            mask = 0
            support = self._support
            for i in support:
                if type(i) is not int:  # no call for an int
                    i, support = _as_int(i, "coordinate"), None  # support rebuilt from the mask
                if not 1 <= i <= degree:
                    raise InvalidCodeError(f"coordinate {i} outside 1..{degree}")
                mask |= 1 << (i - 1)
            _set(self, "_mask", mask)
            if support is not None and not isinstance(support, frozenset):
                support = frozenset(support)
            _set(self, "_support", support)
        elif self._support is None:
            mask = self._mask if type(self._mask) is int else _as_int(self._mask, "mask")
            _set(self, "_mask", mask & ((1 << degree) - 1))

    @classmethod
    def from_mask(cls, degree: int, mask: int) -> "Codeword":
        """The word whose support is the set bits 1..degree of mask; higher bits are dropped."""
        word = _new(cls)
        _set(word, "degree", degree)
        _set(word, "_mask", mask)
        _set(word, "_support", None)
        word.__post_init__()
        return word

    @property
    def support(self) -> frozenset[int]:
        if self._support is None:
            _set(self, "_support", frozenset(_coordinates(self._mask)))
        return self._support

    @property
    def weight(self) -> int:
        return self._mask.bit_count()

    def mask(self) -> int:
        # bit i-1 set iff coordinate i is in the support
        return self._mask

    def __xor__(self, other: "Codeword") -> "Codeword":
        if self.degree != other.degree:
            raise InvalidCodeError("cannot add codewords of different degree")
        return Codeword.from_mask(self.degree, self._mask ^ other._mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codeword):
            return NotImplemented
        return self.degree == other.degree and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.degree, self._mask))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through from_mask; the default for a
        # slotted class would assign the slots, which __setattr__ refuses
        return Codeword.from_mask, (self.degree, self._mask)

    def __repr__(self) -> str:
        return f"Codeword(degree={self.degree!r}, support={self.support!r})"

    def __str__(self) -> str:
        """The support in ascending order, runs of three or more written a-b."""
        m = self._mask
        parts: list[str] = []
        while m:
            low = m & -m
            lo = low.bit_length()  # first coordinate of the lowest run
            run = m >> (lo - 1)
            length = (run ^ (run + 1)).bit_length() - 1  # trailing ones of run
            if length >= 3:
                parts.append(f"{lo}-{lo + length - 1}")
            elif length == 2:
                parts.append(f"{lo},{lo + 1}")
            else:
                parts.append(str(lo))
            m &= m + low  # the carry clears the run
        return ",".join(parts)


def _coordinates(mask: int) -> Iterator[int]:
    """The 1-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def meet_weight(words: Iterable[Codeword]) -> int:
    """Size of the common intersection of 2..4 codewords of equal degree."""
    ws = list(words)
    if not 2 <= len(ws) <= 4:
        raise InvalidCodeError(f"meet_weight takes 2..4 words, got {len(ws)}")
    degree = ws[0].degree
    common = -1
    for w in ws:
        if w.degree != degree:
            raise InvalidCodeError("meet_weight: degree mismatch")
        common &= w.mask()
    return common.bit_count()


def _mask_rank(masks: list[int]) -> int:
    """Rank of a list of GF(2) vectors given as int bitmasks."""
    basis: dict[int, int] = {}  # leading bit -> row
    for m in masks:
        while m:
            lead = m.bit_length() - 1
            if lead not in basis:
                basis[lead] = m
                break
            m ^= basis[lead]
    return len(basis)


class BinaryCode:
    """Span of linearly independent generators inside GF(2)^degree.

    The generator order is part of the object: span order, coordinate class
    order and the representation machinery all key off it.
    """

    def __init__(self, degree: int, generators: Iterable[Codeword]):
        gens = tuple(generators)
        degree = _check_in_range(degree, "degree", MAX_DEGREE)
        for g in gens:
            if g.degree != degree:
                raise InvalidCodeError("generator degree differs from code degree")
        masks = [g.mask() for g in gens]
        if _mask_rank(masks) != len(gens):
            raise InvalidCodeError("generators are linearly dependent")
        self.degree = degree
        self.generators = gens
        # derived data, computed on first use: the generators never change
        self._span_masks: tuple[int, ...] | None = None
        self._span: tuple[Codeword, ...] | None = None
        self._classes: ClassPartition | None = None
        self._weights: tuple[int, ...] | None = None
        self._rep_type: RepType | None = None
        self._class_data = None  # equivalence._class_data of this code

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryCode)
            and self.degree == other.degree
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    def __repr__(self) -> str:
        gens = "; ".join(str(g) for g in self.generators)
        return f"BinaryCode(degree={self.degree}, <{gens}>)"

    def span_masks(self) -> tuple[int, ...]:
        """The masks of the 2^k span words, in the order of span().

        Built by doubling: after generator j the list holds every sum of
        generators 0..j, and the new half is the old half plus generator j.
        Codes of dimension above MAX_SPAN_DIMENSION raise InvalidCodeError
        before anything is allocated.
        """
        if self._span_masks is None:
            k = self.dimension
            if k > MAX_SPAN_DIMENSION:
                raise InvalidCodeError(
                    f"dimension {k} exceeds span cap {MAX_SPAN_DIMENSION} (2^{k} codewords)"
                )
            masks = [0]
            for g in self.generators:
                gm = g.mask()
                masks += [m ^ gm for m in masks]
            self._span_masks = tuple(masks)
        return self._span_masks

    def span(self) -> tuple[Codeword, ...]:
        """All 2^k codewords; entry i is the sum of generators j with bit j set in i."""
        if self._span is None:
            self._span = tuple(Codeword.from_mask(self.degree, m) for m in self.span_masks())
        return self._span

    def is_doubly_even(self) -> bool:
        """True iff every span element has weight divisible by 4.

        Equivalent to: every generator weight is divisible by 4 and every
        pairwise generator intersection is even (|u+v| = |u|+|v|-2|u&v|,
        and evenness of intersections is preserved under sums).
        """
        masks = [g.mask() for g in self.generators]
        for i, a in enumerate(masks):
            if a.bit_count() % 4:
                return False
            for b in masks[:i]:
                if (a & b).bit_count() % 2:
                    return False
        return True

    def first_odd_span_element(self) -> Codeword | None:
        """A span element of weight not divisible by 4, in span order, if any.

        Only span indices with at most two generator bits are tried, so no
        span is built: the first odd element in span order has at most two.
        If x had three or more, every index made of one or two of its bits is
        smaller than x and so doubly even, which makes the subcode spanned
        by x's generators doubly even (see is_doubly_even), w_x included.
        """
        masks = [g.mask() for g in self.generators]
        indices = sorted((1 << i | 1 << j, i, j) for i in range(len(masks)) for j in range(i + 1))
        for _, i, j in indices:
            word = masks[i] if i == j else masks[i] ^ masks[j]
            if word.bit_count() % 4:
                return Codeword.from_mask(self.degree, word)
        return None

    def coordinate_classes(self) -> "ClassPartition":
        """Partition the covered coordinates by generator incidence.

        Two coordinates fall in one class iff every generator (equivalently
        every span element) contains both or neither.  Coordinates missed by
        all generators go to the residue.  The all-ones mask is split on
        each generator in turn, so a class comes out as a mask with its
        signature: bit j set iff generator j contains the class.
        """
        if self._classes is None:
            parts = {0: (1 << self.degree) - 1}  # signature -> coordinates, as a mask
            for j, g in enumerate(self.generators):
                gm, bit = g.mask(), 1 << j
                split = {}
                for sig, m in parts.items():
                    if m & gm:
                        split[sig | bit] = m & gm
                    if m & ~gm:
                        split[sig] = m & ~gm
                parts = split
            residue = parts.pop(0, 0)
            # the classes are disjoint: each has its own lowest coordinate
            by_lowest = {m & -m: (m, sig) for sig, m in parts.items()}
            order = [by_lowest[low] for low in sorted(by_lowest)]
            self._classes = ClassPartition(
                self.degree,
                tuple([m for m, _ in order]),
                residue,
                tuple([sig for _, sig in order]),
            )
        return self._classes

    def rep_type(self) -> "RepType":
        if self._rep_type is None:
            self._rep_type = RepType(tuple(sorted(self.coordinate_classes().sizes())))
        return self._rep_type

    def weight_enumerator(self) -> tuple[int, ...]:
        """Sorted multiset of the 2^k span weights."""
        if self._weights is None:
            self._weights = tuple(sorted(map(int.bit_count, self.span_masks())))
        return self._weights


@dataclass(frozen=True)
class ClassPartition:
    """Coordinate classes of a code, ordered by smallest member.

    Each class is held as a mask, coordinate i at bit i-1, as is the
    residue, the coordinates outside every class.  classes and residue are
    the same sets as frozensets, built on first read.  signatures[i] has
    bit j set iff generator j contains class i; it is derived from the
    generators, so equality and the hash leave it out.
    """

    degree: int
    masks: tuple[int, ...]
    residue_mask: int
    signatures: tuple[int, ...] = field(compare=False)

    @functools.cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_coordinates(m)) for m in self.masks)

    @functools.cached_property
    def residue(self) -> frozenset[int]:
        return frozenset(_coordinates(self.residue_mask))

    def sizes(self) -> tuple[int, ...]:
        return tuple([m.bit_count() for m in self.masks])


@dataclass(frozen=True)
class RepType:
    """Ascending class sizes of a code; the shape invariant of a representation."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if min(self.sizes, default=1) < 1:
            raise InvalidCodeError("class sizes must be positive")
        if tuple(sorted(self.sizes)) != self.sizes:
            raise InvalidCodeError("type sizes must be ascending")

    @property
    def is_reduced(self) -> bool:
        return all(s < 8 for s in self.sizes)

    def __str__(self) -> str:
        if self.sizes and max(self.sizes) > 9:
            return "(" + ",".join(map(str, self.sizes)) + ")"
        return "".join(map(str, self.sizes))


# ---------------------------------------------------------------------------
# code literals
#
# One generator per line: comma-separated coordinates, with "a-b" for an
# inclusive run.  An optional first line "degree=m" pins the degree;
# otherwise the largest coordinate mentioned is used.


def parse_code(text: str) -> BinaryCode:
    """The code of a literal, each generator read straight into a mask as its tokens are read."""
    degree: int | None = None
    gens: list[tuple[int, set[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if degree is None and not gens and line.startswith("degree="):
            value = line[len("degree="):]
            if not _is_number(value):
                raise InvalidCodeError(f"line {lineno}, col 8: bad degree {value!r}")
            degree = _value(value)
            if degree is None:
                raise InvalidCodeError(f"line {lineno}, col 8: number too long")
            continue
        gens.append(_parse_support_line(line, raw, lineno))
    if degree is None:
        if not gens:
            raise InvalidCodeError("empty code literal (no degree, no generators)")
        degree = max(_largest(mask, big) for mask, big in gens)
    _check_in_range(degree, "degree", MAX_DEGREE)
    words = []
    for mask, big in gens:
        largest = _largest(mask, big)
        if largest > degree:
            raise InvalidCodeError(f"coordinate {largest} exceeds declared degree {degree}")
        if mask & 1:
            raise InvalidCodeError(f"coordinate 0 outside 1..{degree}")
        words.append(Codeword.from_mask(degree, mask >> 1))
    return BinaryCode(degree, words)


def _is_number(text: str) -> bool:
    """ASCII digits only: str.isdigit also accepts digits int() rejects, like "²"."""
    return text.isascii() and text.isdigit()


def _value(digits: str) -> int | None:
    """ASCII digits as an int, None if too many: int() refuses over 4300, leading zeros included."""
    try:
        return int(digits.strip().lstrip("0") or "0")
    except ValueError:
        return None


# digits below this many are read by int() directly, far under its limit of at least 640
_SHORT = 20


def _largest(mask: int, big: set[int]) -> int:
    """The largest coordinate of a generator read by _parse_support_line."""
    return max(big) if big else mask.bit_length() - 1


def _parse_support_line(line: str, raw: str, lineno: int) -> tuple[int, set[int]]:
    """One generator line as a mask with coordinate i at bit i (0 included), and the rest.

    A run is one shifted block of bits, and a coordinate met twice is an
    overlapping bit, reported at its lowest.  Coordinates above MAX_DEGREE
    are kept aside in a set and never shifted into the mask; parse_code
    refuses them once the degree is known.  The position of a bad token is
    worked out only when it is refused.
    """
    mask = 0
    big: set[int] = set()
    tokens = line.split(",")
    for n, token in enumerate(tokens):
        tok = token.strip()
        # _is_number, then int() for a short number and _value for a long one
        if tok.isdigit() and tok.isascii():
            i = int(tok) if len(tok) < _SHORT else _value(tok)
            if i is None:
                error = "number too long"
                break
            if i > MAX_DEGREE:
                if i in big:
                    error = f"duplicate coordinate {i}"
                    break
                big.add(i)
                continue
            bits = 1 << i
        elif "-" in tok:
            lo_s, _, hi_s = tok.partition("-")
            lo_s, hi_s = lo_s.strip(), hi_s.strip()
            if not (lo_s.isdigit() and hi_s.isdigit() and lo_s.isascii() and hi_s.isascii()):
                error = f"bad range {tok!r}"
                break
            lo = int(lo_s) if len(lo_s) < _SHORT else _value(lo_s)
            hi = int(hi_s) if len(hi_s) < _SHORT else _value(hi_s)
            if lo is None or hi is None:
                error = "number too long"
                break
            if lo > hi:
                error = f"empty range {tok!r}"
                break
            if hi > MAX_DEGREE:  # refuse before building the run
                error = f"coordinate {hi} out of range 1..{MAX_DEGREE}"
                break
            bits = ((2 << (hi - lo)) - 1) << lo
        else:
            error = f"bad coordinate {tok!r}" if tok else "empty entry"
            break
        overlap = mask & bits
        if overlap:
            error = f"duplicate coordinate {(overlap & -overlap).bit_length() - 1}"
            break
        mask |= bits
    else:
        return mask, big
    col = raw.index(line) + 1 + sum(len(token) + 1 for token in tokens[:n])
    raise InvalidCodeError(f"line {lineno}, col {col}: {error}")


def format_code(code: BinaryCode) -> str:
    lines = [f"degree={code.degree}"]
    lines.extend(str(g) for g in code.generators)
    return "\n".join(lines) + "\n"
