"""Exact coefficient rings: the integers and prime fields.

Coefficients are plain Python integers throughout, so arithmetic over Z is
arbitrary precision by construction.  Over F_p every stored coefficient is
normalized into ``range(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modp import MAX_PRIME


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division.

    The moduli used in this package are small (single or double digits), so
    trial division is both simple and fast enough.
    """
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Ring:
    """The integers (``char == 0``) or the prime field F_p (``char == p``)."""

    char: int = 0

    def __post_init__(self) -> None:
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"characteristic must be 0 or a prime, got {self.char}")

    @property
    def is_field(self) -> bool:
        return self.char != 0

    def normalize(self, c: int) -> int:
        return c if self.char == 0 else c % self.char

    def __str__(self) -> str:
        return "Z" if self.char == 0 else f"F{self.char}"


ZZ = Ring(0)


def GF(p: int) -> Ring:
    """The field with ``p`` elements (``p`` prime)."""
    return Ring(p)


def parse_ring(text: str) -> Ring:
    """Parse a command-line ring spec: ``"Z"`` or ``"Fp:<prime>"`` with the
    prime at most :data:`extbar.modp.MAX_PRIME`."""
    if text == "Z":
        return ZZ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValueError(f"invalid ring {text!r}: expected 'Z' or 'Fp:<prime>'")
        if p > MAX_PRIME:
            raise ValueError(
                f"invalid ring {text!r}: primes above {MAX_PRIME} are not supported"
            )
        if not is_prime(p):
            raise ValueError(f"invalid ring {text!r}: {p} is not prime")
        return Ring(p)
    raise ValueError(f"invalid ring {text!r}: expected 'Z' or 'Fp:<prime>'")
