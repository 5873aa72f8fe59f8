"""Key and trace generators with controlled collision and skew profiles.

Keys are 64-bit and placed by a multiplicative hash whose odd constant is
invertible mod 2**64, so the generator can build a preimage for any target
(owner, bucket) pair directly instead of rejection-sampling the full space.
``KeyStream`` draws the hash table's own keys, with an exact collision share;
``skewed_bucket_keys`` draws the hot-owner keys of the translation-cache
sweep (``iotlb.hot_owner_keys``); any other key source is its caller's, built
on ``key_for``.
"""

FIB = 0x9E3779B97F4A7C15
FIB_INV = pow(FIB, -1, 1 << 64)
MASK64 = (1 << 64) - 1
ZIPF_SKEW = 1.1
# Hot table pages sit this many pages apart, so that they contend for the
# same sets of a set-associative translation cache.
HOT_PAGE_STRIDE = 2


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


class KeyStream:
    """Insert keys with an exact share of bucket collisions.

    Collisions are paced by quota rather than coin flips: insert i collides
    when floor(i * r_cols) advances, which lands the measured ratio within
    1/count of the target with no sampling noise.

    The quota is per stream, that is per source: a collision is a key aimed
    at a bucket this stream already used. Fresh keys of different streams
    may land in the same bucket too, and those collisions come on top of
    the quota: ``collisions`` leaves them out, and ``DhtBench.collisions``
    counts both.

    A used spot is kept as one int, ``owner * table_size + bucket``.
    """

    def __init__(self, rng, procs, table_size, r_cols=0.0):
        self.rng = rng
        self.procs = procs
        self.table_size = table_size
        self.r_cols = r_cols
        self.used = []  # occupied spots, first-use order
        self.used_set = set()
        self.used_keys = set()
        self.issued = 0
        self.collisions = 0

    def take(self, count):
        """The next count keys. A fresh key takes 64-bit draws until one gives
        a nonzero, unused key on a free spot; an aimed key takes one draw as
        rng.randrange(len(used)) would, to pick a used spot, then key_for's."""
        draw = self.rng.getrandbits
        procs, table_size, r_cols = self.procs, self.table_size, self.r_cols
        mask = table_size - 1
        used, used_set, used_keys = self.used, self.used_set, self.used_keys
        start = self.issued
        floor = int(start * r_cols)
        out = []
        for issued in range(start + 1, start + count + 1):
            quota = int(issued * r_cols)
            if quota > floor and used:
                # rng.randrange(n), inlined: the same getrandbits calls.
                i = n = len(used)
                k = n.bit_length()
                while i >= n:
                    i = draw(k)
                key = key_for(self.rng, *divmod(used[i], table_size), procs, table_size, used_keys)
                self.collisions += 1
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
        self.issued = start + count
        return out


def zipf_indices(rng, universe, count):
    """count draws from [0, universe) with a power-law popularity profile."""
    weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(universe)]
    return rng.choices(range(universe), weights, k=count)


def skewed_bucket_keys(rng, count, owner, procs, table_size):
    """Keys for one owner whose buckets cluster on a few hot table pages."""
    buckets_per_page = 4096 // 16
    n_pages = max(1, table_size // buckets_per_page)
    universe = max(1, n_pages // HOT_PAGE_STRIDE)
    ranks = zipf_indices(rng, universe, count)
    used = set()
    out = []
    for rank in ranks:
        page = rank * HOT_PAGE_STRIDE % n_pages
        bucket = page * buckets_per_page + rng.randrange(buckets_per_page)
        key = key_for(rng, owner, bucket, procs, table_size, used)
        used.add(key)
        out.append(key)
    return out


def zipf_page_trace(rng, n_pages, count, loops=1):
    """A page-visit trace with hot pages, replayed loops times end to end."""
    once = zipf_indices(rng, n_pages, count)
    return once * loops
