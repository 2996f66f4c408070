"""Exact coefficient rings: the integers and prime fields.

Coefficients are plain Python integers throughout, so arithmetic over Z is
arbitrary precision by construction.  Over F_p every stored coefficient is
normalized into ``range(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modp import MAX_PRIME, check_prime, is_prime


@dataclass(frozen=True)
class Ring:
    """The integers (``char == 0``) or the prime field F_p (``char == p``)
    for a prime ``p`` at most :data:`extbar.modp.MAX_PRIME`."""

    char: int = 0

    def __post_init__(self) -> None:
        if self.char != 0:
            check_prime(self.char)

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
