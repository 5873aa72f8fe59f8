"""Key and trace generators with controlled collision and skew profiles.

Keys are 64-bit and placed by a multiplicative hash whose odd constant is
invertible mod 2**64, so the generator can build a preimage for any target
(owner, bucket) pair directly instead of rejection-sampling the full space.
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
    h = hash64(key)
    return owner_of(h, procs), bucket_of(h, table_size)


def key_for(rng, owner, bucket, procs, table_size, used_keys):
    """A fresh key hashing to exactly (owner, bucket).

    The table size is a power of two, so clearing a draw's low bits and
    adding the bucket gives a hash in that bucket; the loop inlines
    owner_of and the inverse hash.
    """
    draw = rng.getrandbits
    high = ~(table_size - 1)
    while True:
        h = ((draw(64) & high) + bucket) & MASK64
        if (h >> 54) % procs != owner:
            continue
        key = (h * FIB_INV) & MASK64
        if key and key not in used_keys:
            return key


def fresh_key(rng, procs, table_size, used_buckets, used_keys):
    """A key whose (owner, bucket) is not occupied yet; placement inlined."""
    draw = rng.getrandbits
    mask = table_size - 1
    while True:
        key = draw(64)
        if not key or key in used_keys:
            continue
        h = (key * FIB) & MASK64
        spot = ((h >> 54) % procs, h & mask)
        if spot not in used_buckets:
            return key, spot


class KeyStream:
    """Insert keys with an exact share of bucket collisions.

    Collisions are paced by quota rather than coin flips: insert i collides
    when floor(i * r_cols) advances, which lands the measured ratio within
    1/count of the target with no sampling noise.

    The quota is per stream, that is per source: a collision is a key aimed
    at a bucket this stream already used. Fresh keys of different streams
    may land in the same bucket too, and those collisions come on top of
    the quota: ``collisions`` leaves them out, and ``DhtBench.collisions()``
    counts both.
    """

    def __init__(self, rng, procs, table_size, r_cols=0.0):
        self.rng = rng
        self.procs = procs
        self.table_size = table_size
        self.r_cols = r_cols
        self.used = []  # occupied (owner, bucket) pairs, first-use order
        self.used_set = set()
        self.used_keys = set()
        self.issued = 0
        self.collisions = 0

    def next_key(self):
        issued = self.issued
        rng = self.rng
        if int((issued + 1) * self.r_cols) > int(issued * self.r_cols) and self.used:
            owner, bucket = self.used[rng.randrange(len(self.used))]
            key = key_for(rng, owner, bucket, self.procs, self.table_size, self.used_keys)
            self.collisions += 1
        else:
            key, spot = fresh_key(rng, self.procs, self.table_size, self.used_set, self.used_keys)
            self.used.append(spot)
            self.used_set.add(spot)
        self.used_keys.add(key)
        self.issued = issued + 1
        return key

    def take(self, count):
        return [self.next_key() for _ in range(count)]

    @property
    def measured_r_cols(self):
        return self.collisions / self.issued if self.issued else 0.0


def forced_collision_keys(rng, count, owner, bucket, procs, table_size):
    """count distinct keys all hashing to one (owner, bucket): every insert
    after the first is a collision."""
    used = set()
    out = []
    for _ in range(count):
        key = key_for(rng, owner, bucket, procs, table_size, used)
        used.add(key)
        out.append(key)
    return out


def zipf_indices(rng, universe, count):
    """count draws from [0, universe) with a power-law popularity profile."""
    weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(universe)]
    total = 0.0
    cum = []
    for w in weights:
        total += w
        cum.append(total)
    return rng.choices(range(universe), cum_weights=cum, k=count)


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
