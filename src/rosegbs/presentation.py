"""Rose presentations of multiple HNN extensions of Z, and exact word algebra.

The group is <a, t_1..t_r | t_i a^(n_i) t_i^(-1) = a^(m_i)>.  Generators are
addressed by index: 0 is a, i >= 1 is t_i.  Words are stored run-length as
(generator, exponent) pairs and are always kept freely reduced, so huge
exponents cost O(1) storage.  All values are immutable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

#: Generator index: 0 denotes a, i >= 1 denotes t_i.
GenIndex = int

Letter = tuple[GenIndex, int]


class PresentationError(ValueError):
    """Invalid presentation or word input."""


class ParseError(PresentationError):
    """Syntax or semantic error in textual input, with a 0-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class LoopRelation:
    """One loop t a^n t^(-1) = a^m; n and m are nonzero integers."""

    n: int
    m: int

    def __post_init__(self):
        if self.n == 0 or self.m == 0:
            raise PresentationError("loop exponents must be nonzero")


@dataclass(frozen=True)
class RoseGbs:
    """A rose presentation: r stable letters, one LoopRelation per letter."""

    loops: tuple[LoopRelation, ...]

    def __post_init__(self):
        if len(self.loops) < 1:
            raise PresentationError("need at least one stable letter")

    @property
    def r(self) -> int:
        return len(self.loops)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "RoseGbs":
        return RoseGbs(tuple(LoopRelation(n, m) for n, m in pairs))

    def __str__(self) -> str:
        names = ",".join(f"t{i}" for i in range(1, self.r + 1))
        rels = " ; ".join(
            f"t{i} a^{L.n} t{i}^-1 = a^{L.m}" for i, L in enumerate(self.loops, 1)
        )
        return f"<a,{names} | {rels}>"


@dataclass(frozen=True)
class Word:
    """A freely reduced word over {a, t_1..t_r}; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        prev = None
        for gen, exp in self.letters:
            if exp == 0:
                raise PresentationError("word letter with zero exponent")
            if gen == prev:
                raise PresentationError("word is not freely reduced")
            prev = gen

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """Letter length: total number of single letters, sum of |exponents|."""
        return sum(abs(e) for _, e in self.letters)

    def max_gen(self) -> int:
        return max((g for g, _ in self.letters), default=0)

    @cached_property
    def _reduced_mod(self) -> dict[int, "Word"]:
        return {}

    def reduced_mod(self, modulus: int) -> "Word":
        """This word with each exponent taken mod modulus, zero letters dropped
        and the neighbours merged again (reduce(.., modulus)): the same image
        under any map into a group of exponent dividing modulus.  Cached on the
        word, per modulus."""
        cache = self._reduced_mod
        if modulus not in cache:
            cache[modulus] = reduce(self.letters, modulus)
        return cache[modulus]

    @cached_property
    def abelianised(self) -> "Word":
        """a^(e_0) t_1^(e_1) .. t_r^(e_r), e_g the exponent sum of generator
        g in this word: the same image under any map into an abelian group."""
        sums: dict[int, int] = {}
        for gen, exp in self.letters:
            sums[gen] = sums.get(gen, 0) + exp
        return Word(tuple((g, e) for g, e in sorted(sums.items()) if e))

    def __str__(self) -> str:
        return print_word(self)


def reduce(letters: Iterable[Letter], modulus: int = 0) -> Word:
    """Freely reduce a letter sequence: merge equal neighbours, drop zeros.

    With a modulus, every merged exponent is taken mod modulus first, so a
    letter that vanishes lets its neighbours merge in the same pass."""
    stack: list[Letter] = []
    for gen, exp in letters:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if modulus:
            exp %= modulus
        if exp:
            stack.append((gen, exp))
    return Word(tuple(stack))


def britton(pres: RoseGbs, w: Word) -> Word:
    """The pinch-free form of w in G: w is 1 in G iff it has no letters.

    A pinch replaces t_i a^k t_i^(-1) by a^(k m_i / n_i) when n_i | k, and
    t_i^(-1) a^k t_i by a^(k n_i / m_i) when m_i | k.  By Britton's lemma
    (Britton, "The word problem", Ann. of Math. 77, 1963; Lyndon & Schupp,
    Combinatorial Group Theory, ch. IV, sec. 2) a freely reduced word with a
    stable letter and no pinch is not 1 in G, and a^k is 1 only for k = 0.

    One left-to-right pass keeps a pinch-free stack of syllables, a^k or a
    whole run t_i^e.  An incoming run merges with a run of its letter on top,
    and a remainder of its own sign is pushed again, as it may pinch against
    the new top; a remainder of the top's sign pinches no more than the top
    did.  An incoming run t_i^e against t_i^f a^k (opposite signs) takes as
    many pinches at once as are valid (_pinch), so a deep nest such as
    t^(-N) a^(3^N) t^N costs one step, not N.
    """
    stack: list[Letter] = []
    for gen, exp in w.letters:
        if gen == 0:
            _push_a(stack, exp)
            continue
        loop = pres.loops[gen - 1]
        while exp:
            if stack and stack[-1][0] == gen:
                f = stack.pop()[1]
                exp += f
                if exp and (exp > 0) == (f > 0):
                    stack.append((gen, exp))
                    break
                continue
            if len(stack) > 1 and stack[-1][0] == 0 and stack[-2][0] == gen:
                f = stack[-2][1]
                if (f > 0) != (exp > 0):
                    div, mul = (loop.n, loop.m) if f > 0 else (loop.m, loop.n)
                    j, k = _pinch(stack[-1][1], div, mul, min(abs(f), abs(exp)))
                    if j:
                        del stack[-2:]
                        f -= j if f > 0 else -j
                        exp -= j if exp > 0 else -j
                        if f:
                            stack.append((gen, f))
                        _push_a(stack, k)
                        continue
            stack.append((gen, exp))
            break
    return Word(tuple(stack))


def _push_a(stack: list[Letter], k: int) -> None:
    """Push a^k, merged with an a^k' on top."""
    if stack and stack[-1][0] == 0:
        k += stack.pop()[1]
    if k:
        stack.append((0, k))


def _pinch(k: int, div: int, mul: int, most: int) -> tuple[int, int]:
    """(j, k_j): the most pinches j <= most that a^k admits, each taking a^x
    to a^(x mul / div) when div | x, and the exponent after them.

    With g = gcd(div, mul), d = |div| / g and u = mul / g (gcd(d, u) = 1),
    j pinches are valid iff div d^(j-1) | k: if k = g d^i y, i pinches leave
    +-g u^i y, and div | g u^i y iff d | y.  The largest i <= most - 1 with
    d^i | k / div is found by squaring d repeatedly, then dividing by the
    squares from the largest down."""
    if k % div:
        return 0, k
    g = math.gcd(div, mul)
    d, u = abs(div) // g, mul // g
    j = most
    if d > 1:
        x, j = k // div, 1
        squares = [d]
        while 2 ** len(squares) < most and x % squares[-1] == 0:
            squares.append(squares[-1] ** 2)
        for b in reversed(range(len(squares))):
            if j + 2**b <= most and x % squares[b] == 0:
                x //= squares[b]
                j += 2**b
    sign = -1 if div < 0 and j % 2 else 1
    return j, sign * k // d**j * u**j


def generator(gen: GenIndex, exp: int = 1) -> Word:
    return reduce([(gen, exp)])


def invert(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


def conjugate(w: Word, g: Word) -> Word:
    """g * w * g^(-1)."""
    return reduce(g.letters + w.letters + invert(g).letters)


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^(-1) y^(-1)."""
    return reduce(x.letters + y.letters + invert(x).letters + invert(y).letters)


# --- textual form ----------------------------------------------------------

_TOKEN = re.compile(r"(?P<name>a|t\d+)|(?P<int>-?\d+)|(?P<punct>[<>|,;=^])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup or "", m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        k, v, pos = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {v or 'end of input'!r}", pos)
        return k, v, pos

    def expect_int(self) -> tuple[int, int]:
        """The next token as a nonzero integer, with its position."""
        k, v, pos = self.next()
        if k != "int":
            raise ParseError(f"expected integer, found {v or 'end of input'!r}", pos)
        value = int(v)
        if value == 0:
            raise ParseError("zero exponent", pos)
        return value, pos


def parse_presentation(text: str) -> RoseGbs:
    """Parse '<a,t1,..,tr | t1 a^n t1^-1 = a^m ; ...>' into a RoseGbs.

    Declared stable letters must be t1..tr in order; every letter gets exactly
    one relation, in any order, and each relation must have the exact HNN
    shape t_i a^n t_i^-1 = a^m with nonzero n, m.
    """
    cur = _Cursor(text)
    cur.expect("punct", "<")
    cur.expect("name", "a")
    names: list[str] = []
    while cur.peek()[:2] == ("punct", ","):
        cur.next()
        k, v, pos = cur.expect("name")
        if v == "a":
            raise ParseError("duplicate generator 'a'", pos)
        if v != f"t{len(names) + 1}":
            raise ParseError(
                f"stable letters must be declared in order t1..tr; found {v!r}", pos
            )
        names.append(v)
    if not names:
        k, v, pos = cur.peek()
        raise ParseError("need at least one stable letter", pos)
    cur.expect("punct", "|")
    r = len(names)
    loops: dict[int, LoopRelation] = {}
    while True:
        _, tname, tpos = cur.expect("name")
        if tname == "a":
            raise ParseError("relation must start with a stable letter", tpos)
        if tname not in names:
            raise ParseError(f"unknown stable letter {tname!r}", tpos)
        idx = names.index(tname) + 1
        if idx in loops:
            raise ParseError(f"duplicate relation for {tname!r}", tpos)
        cur.expect("name", "a")
        cur.expect("punct", "^")
        n, _ = cur.expect_int()
        _, tname2, pos2 = cur.expect("name")
        if tname2 != tname:
            raise ParseError(
                f"relation not of HNN shape: expected {tname!r}^-1, found {tname2!r}",
                pos2,
            )
        cur.expect("punct", "^")
        e, epos = cur.expect_int()
        if e != -1:
            raise ParseError("relation not of HNN shape: exponent must be -1", epos)
        cur.expect("punct", "=")
        cur.expect("name", "a")
        cur.expect("punct", "^")
        m, _ = cur.expect_int()
        loops[idx] = LoopRelation(n, m)
        k, v, pos = cur.next()
        if (k, v) == ("punct", ";"):
            continue
        if (k, v) == ("punct", ">"):
            break
        raise ParseError(f"expected ';' or '>', found {v or 'end of input'!r}", pos)
    cur.expect("end")
    missing = [i for i in range(1, r + 1) if i not in loops]
    if missing:
        raise ParseError(f"missing relation for t{missing[0]}", len(text))
    return RoseGbs(tuple(loops[i] for i in range(1, r + 1)))


def parse_word(text: str, pres: RoseGbs) -> Word:
    """Parse a juxtaposition of atoms a, t<k>, each optionally powered by ^int."""
    cur = _Cursor(text)
    letters: list[Letter] = []
    first = True
    while True:
        k, v, pos = cur.next()
        if k == "end":
            break
        if first and (k, v) == ("int", "1") and cur.peek()[0] == "end":
            break  # "1" denotes the identity
        first = False
        if k != "name":
            raise ParseError(f"expected generator, found {v!r}", pos)
        gen = 0 if v == "a" else int(v[1:])
        if gen > pres.r or v != _name(gen):  # t0 and t01 are not names
            raise ParseError(f"unknown generator {v!r}", pos)
        exp = 1
        if cur.peek()[:2] == ("punct", "^"):
            cur.next()
            exp, _ = cur.expect_int()
        letters.append((gen, exp))
    return reduce(letters)


def print_word(w: Word) -> str:
    """Inverse of parse_word: identity prints as '1'."""
    if w.is_identity():
        return "1"
    parts = []
    for gen, exp in w.letters:
        name = _name(gen)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def _name(gen: GenIndex) -> str:
    return "a" if gen == 0 else f"t{gen}"
