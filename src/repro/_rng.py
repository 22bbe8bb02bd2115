"""Deterministic random-number plumbing.

Every stochastic component in the library takes an explicit
:class:`numpy.random.Generator`.  This module centralises how generators are
derived so that:

* the same global seed always reproduces the same datasets, detections and
  tables, and
* a detector's output for a given image is a pure function of
  ``(global seed, detector name, image id)`` — re-running the small model on
  an image during discrimination and again during evaluation yields the
  *identical* boxes, exactly as a deterministic neural network would.

:func:`generator_for` seeds one such stream.  :func:`generators_for` seeds
one per item of a split in one pass, draw for draw the same streams: it
hashes the shared scope once, runs NumPy's ``SeedSequence`` mixing over a
chunk of digests as ``uint32`` array arithmetic, and reseeds one reused
``PCG64``.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

#: Default global seed used by the experiment harness when none is supplied.
DEFAULT_SEED = 20230701

#: Items whose seeds :func:`generators_for` mixes in one array pass.
_CHUNK = 512


def _stable_digest(*parts: object) -> int:
    """Return a stable 64-bit integer digest of ``parts``.

    Python's built-in ``hash`` is salted per process, so it cannot be used for
    reproducible seeding.  We hash the ``repr`` of each part with SHA-256 and
    fold the digest down to 64 bits.
    """
    payload = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def generator_for(seed: int, *scope: object) -> np.random.Generator:
    """Create a generator deterministically scoped to ``(seed, *scope)``.

    Parameters
    ----------
    seed:
        The experiment-wide seed.
    scope:
        Any hashable-by-repr identifiers, e.g. ``("detector", "ssd300",
        image_id)``.  Different scopes yield independent streams.
    """
    return np.random.default_rng(_stable_digest(seed, *scope))


def generators_for(seed: int, *scope: object, ids: Iterable[object]) -> Iterator[np.random.Generator]:
    """Yield, for each of ``ids``, the stream of ``generator_for(seed,
    *scope, id)``.

    Every draw equals the one-off generator's bit for bit, but seeding is
    cheaper: the shared ``(seed, *scope)`` prefix is hashed once, and the
    seeds are mixed a chunk at a time.  The yielded generator is *one*
    object reseeded for each id, so it is valid only until the next one is
    requested; a caller that keeps a generator past its loop iteration
    builds it with :func:`generator_for` instead.
    """
    # _stable_digest's payload up to the id's repr.
    prefix = hashlib.sha256("".join(repr(part) + "\x1f" for part in (seed, *scope)).encode("utf-8"))
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    items = iter(ids)
    while chunk := list(islice(items, _CHUNK)):
        digests = bytearray()
        for item in chunk:
            hashed = prefix.copy()
            hashed.update(repr(item).encode("utf-8"))
            digests += hashed.digest()[:8]
        for words in _seed_states(np.frombuffer(digests, dtype="<u8")).tolist():
            state["state"] = _pcg64_srandom(*words)
            bit_generator.state = state
            yield generator


def spawn(rng: np.random.Generator, *scope: object) -> np.random.Generator:
    """Derive a child generator from ``rng`` scoped by ``scope``.

    The child is seeded from a draw of ``rng`` combined with the scope digest,
    so sibling children with distinct scopes are independent.
    """
    base = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(_stable_digest(base, *scope))


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx), fixed by
# NEP 19's stream-compatibility promise for seeding.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every ``uint64``
    seed ``s``, as one ``(n, 4)`` array.

    A seed below ``2**32`` enters the pool as one word and a larger one as
    two; the pool runs its hash out over missing words with zeros, so both
    are the two-word case with the high word possibly zero.
    """

    def hasher(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
        # hashmix, whose multiplier advances with every word it hashes.
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * mult) & _MASK32
            value *= np.uint32(hash_const)
            value ^= value >> _XSHIFT
            return value

        return hashmix

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    seeds = np.asarray(seeds, dtype=np.uint64)
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    hashmix = hasher(_INIT_A, _MULT_A)
    low, high = (seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(low), hashmix(high), hashmix(zeros), hashmix(zeros)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    output = hasher(_INIT_B, _MULT_B)
    words = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        words[:, i] = output(pool[i % _POOL_SIZE])
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64)


#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _pcg64_srandom(seed_hi: int, seed_lo: int, inc_hi: int, inc_lo: int) -> dict[str, int]:
    """The ``PCG64`` state that ``pcg64_set_seed`` derives from the four
    words of ``generate_state(4, np.uint64)``."""
    inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
    # srandom: state = 0, one step (state = inc), state += seed, one step.
    state = (inc + ((seed_hi << 64) | seed_lo)) & _MASK128
    return {"state": (state * _PCG_MULT + inc) & _MASK128, "inc": inc}
