"""Key generators with a controlled collision profile.

Keys are 64-bit and placed by a multiplicative hash whose odd constant is
invertible mod 2**64, so the generator can build a preimage for any target
(owner, bucket) pair directly instead of rejection-sampling the full space.
``collision_keys`` draws the hash table's own keys, with an exact collision
share; any other key source is its caller's, built on ``key_for`` (the
translation-cache sweep's hot-owner keys are ``iotlb.hot_owner_keys``).
"""

from ..config import ConfigError

FIB = 0x9E3779B97F4A7C15
FIB_INV = pow(FIB, -1, 1 << 64)
MASK64 = (1 << 64) - 1


def hash64(key):
    return (key * FIB) & MASK64


def bucket_of(h, table_size):
    return h & (table_size - 1)


def owner_of(h, procs):
    return (h >> 54) % procs


def placement(key, procs, table_size):
    """(owner, bucket) of key: hash64, owner_of and bucket_of, inlined."""
    h = (key * FIB) & MASK64
    return (h >> 54) % procs, h & (table_size - 1)


def key_for(rng, owner, bucket, procs, table_size, used_keys):
    """A fresh key hashing to exactly (owner, bucket): 64-bit draws until one
    gives a nonzero, unused key there.

    The table size is a power of two of at most 2**54, so a draw with its low
    bits cleared plus the bucket is a hash in that bucket whose owner bits are
    the draw's top ten; they are tested first.
    """
    draw = rng.getrandbits
    high = ~(table_size - 1)
    while True:
        r = draw(64)
        if (r >> 54) % procs != owner:
            continue
        key = (((r & high) + bucket) * FIB_INV) & MASK64
        if key and key not in used_keys:
            return key


def collision_keys(rng, procs, table_size, r_cols, count):
    """count insert keys of one source with an exact share of bucket collisions.

    Collisions are paced by quota rather than coin flips: insert i collides
    when floor(i * r_cols) advances, which lands the source's ratio within
    1/count of the target with no sampling noise. A colliding key is aimed
    at a spot (owner, bucket) this source already used: one draw as
    rng.randrange(len(used)) would, to pick the spot, then key_for's. A
    fresh key takes 64-bit draws until one gives a nonzero, unused key on a
    free spot. Fresh keys of different sources may share a spot too, so a
    table's collisions can exceed the sum of its sources' quotas.

    A used spot is kept as one int, ``owner * table_size + bucket``.
    """
    fresh, slots = count - int(count * r_cols), procs * table_size
    if fresh > slots:
        raise ConfigError(
            "%d fresh keys per source exceed the %d (owner, bucket) slots of %d procs"
            " x %d buckets" % (fresh, slots, procs, table_size)
        )
    draw = rng.getrandbits
    mask = table_size - 1
    used, used_set, used_keys, out = [], set(), set(), []
    floor = 0
    for issued in range(1, count + 1):
        quota = int(issued * r_cols)
        if quota > floor and used:
            # rng.randrange(n), inlined: the same getrandbits calls.
            i = n = len(used)
            k = n.bit_length()
            while i >= n:
                i = draw(k)
            key = key_for(rng, *divmod(used[i], table_size), procs, table_size, used_keys)
        else:
            while True:
                key = draw(64)
                if key and key not in used_keys:
                    h = (key * FIB) & MASK64
                    spot = (h >> 54) % procs * table_size + (h & mask)
                    if spot not in used_set:
                        break
            used.append(spot)
            used_set.add(spot)
        floor = quota
        used_keys.add(key)
        out.append(key)
    return out
