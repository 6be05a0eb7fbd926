"""Direct unit tests for ResponseCache: admission, bounds, order, staleness.

The server integration tests exercise the cache only through whole sync
conversations; these pin the admission, eviction and invalidation
contracts the hub relies on (every hosted repo carries one of these
caches). A response is stored on the second offer of its key, so the
bound and order tests below store through :func:`admit`.
"""

from repro.remote import ResponseCache

TOKEN = (1, 1, 1, 1, 1, 1)


def key(i):
    return f"key-{i}".encode().ljust(32, b"0")


def admit(cache, k, token, value):
    """Offer a response twice: the second offer is the one stored."""
    cache.put(k, token, value)
    cache.put(k, token, value)


class TestSecondOfferAdmission:
    def test_first_offer_stores_nothing(self):
        cache = ResponseCache()
        cache.put(key(0), TOKEN, b"once")
        assert cache.get(key(0), TOKEN) is None
        assert cache.snapshot()["bytes"] == 0
        cache.put(key(0), TOKEN, b"twice")
        assert cache.get(key(0), TOKEN) == b"twice"

    def test_offered_keys_are_bounded_by_max_entries(self):
        cache = ResponseCache(max_entries=2)
        for i in range(3):  # key(0), the oldest offer, is forgotten
            cache.put(key(i), TOKEN, b"v")
        cache.put(key(0), TOKEN, b"v")
        assert cache.get(key(0), TOKEN) is None
        cache.put(key(2), TOKEN, b"v")
        assert cache.get(key(2), TOKEN) == b"v"

    def test_invalidate_forgets_offers(self):
        cache = ResponseCache()
        cache.put(key(0), TOKEN, b"v")
        cache.invalidate()
        cache.put(key(0), TOKEN, b"v")
        assert cache.get(key(0), TOKEN) is None
        cache.put(key(0), TOKEN, b"v")
        assert cache.get(key(0), TOKEN) == b"v"


class TestEntryBound:
    def test_lru_eviction_order(self):
        cache = ResponseCache(max_entries=3)
        for i in range(3):
            admit(cache, key(i), TOKEN, b"v%d" % i)
        admit(cache, key(3), TOKEN, b"v3")  # evicts key(0), the oldest
        assert cache.get(key(0), TOKEN) is None
        for i in (1, 2, 3):
            assert cache.get(key(i), TOKEN) == b"v%d" % i

    def test_get_refreshes_recency(self):
        cache = ResponseCache(max_entries=2)
        admit(cache, key(0), TOKEN, b"a")
        admit(cache, key(1), TOKEN, b"b")
        assert cache.get(key(0), TOKEN) == b"a"  # 0 now most recent
        admit(cache, key(2), TOKEN, b"c")  # evicts 1, not 0
        assert cache.get(key(1), TOKEN) is None
        assert cache.get(key(0), TOKEN) == b"a"

    def test_put_refreshes_recency(self):
        cache = ResponseCache(max_entries=2)
        admit(cache, key(0), TOKEN, b"a")
        admit(cache, key(1), TOKEN, b"b")
        admit(cache, key(0), TOKEN, b"a2")  # re-put: 0 most recent again
        admit(cache, key(2), TOKEN, b"c")
        assert cache.get(key(1), TOKEN) is None
        assert cache.get(key(0), TOKEN) == b"a2"

    def test_zero_entries_disables(self):
        cache = ResponseCache(max_entries=0)
        admit(cache, key(0), TOKEN, b"a")
        assert cache.get(key(0), TOKEN) is None
        assert cache.hits == 0


class TestByteBound:
    def test_total_bytes_evicts_oldest_until_under(self):
        cache = ResponseCache(max_entries=100, max_total_bytes=100)
        admit(cache, key(0), TOKEN, b"x" * 60)
        admit(cache, key(1), TOKEN, b"y" * 30)
        # 60 + 30 + 40 > 100: evict key(0) (oldest); 30 + 40 fits
        admit(cache, key(2), TOKEN, b"z" * 40)
        assert cache.get(key(0), TOKEN) is None
        assert cache.get(key(1), TOKEN) == b"y" * 30
        assert cache.get(key(2), TOKEN) == b"z" * 40

    def test_eviction_continues_until_bound_holds(self):
        cache = ResponseCache(max_entries=100, max_total_bytes=100)
        for i in range(4):
            admit(cache, key(i), TOKEN, b"x" * 30)
        # the fourth put already evicted key(0) (120 > 100); adding 40
        # more evicts exactly one further entry, key(1)
        admit(cache, key(9), TOKEN, b"y" * 40)
        survivors = [i for i in range(4) if cache.get(key(i), TOKEN)]
        assert survivors == [2, 3]
        assert cache.get(key(9), TOKEN) == b"y" * 40

    def test_value_larger_than_bound_is_never_cached(self):
        cache = ResponseCache(max_entries=10, max_total_bytes=50)
        admit(cache, key(0), TOKEN, b"tiny")
        admit(cache, key(1), TOKEN, b"x" * 51)
        assert cache.get(key(1), TOKEN) is None
        # and it did not evict what was already there
        assert cache.get(key(0), TOKEN) == b"tiny"

    def test_replacing_entry_updates_byte_accounting(self):
        cache = ResponseCache(max_entries=10, max_total_bytes=100)
        admit(cache, key(0), TOKEN, b"x" * 90)
        admit(cache, key(0), TOKEN, b"x" * 10)  # replaces, frees 80
        admit(cache, key(1), TOKEN, b"y" * 85)  # fits: 10 + 85 < 100
        assert cache.get(key(0), TOKEN) == b"x" * 10
        assert cache.get(key(1), TOKEN) == b"y" * 85


class TestRevisionTokens:
    def test_stale_token_is_a_miss(self):
        cache = ResponseCache()
        admit(cache, key(0), (1, 0, 0, 0, 0, 0), b"old")
        assert cache.get(key(0), (2, 0, 0, 0, 0, 0)) is None
        assert cache.misses == 1

    def test_any_component_of_the_token_matters(self):
        cache = ResponseCache()
        token = (1, 2, 3, 4, 5, 6)
        admit(cache, key(0), token, b"v")
        for moved in range(6):
            stale = list(token)
            stale[moved] += 1
            assert cache.get(key(0), tuple(stale)) is None
        assert cache.get(key(0), token) == b"v"

    def test_put_under_new_token_refreshes(self):
        cache = ResponseCache()
        admit(cache, key(0), (1,), b"old")
        admit(cache, key(0), (2,), b"new")
        assert cache.get(key(0), (1,)) is None
        assert cache.get(key(0), (2,)) == b"new"

    def test_invalidate_clears_everything(self):
        cache = ResponseCache()
        for i in range(5):
            admit(cache, key(i), TOKEN, b"v")
        cache.invalidate()
        assert all(cache.get(key(i), TOKEN) is None for i in range(5))
        # byte accounting reset too: a full-size entry fits again
        cache.max_total_bytes = 10
        admit(cache, key(0), TOKEN, b"x" * 10)
        assert cache.get(key(0), TOKEN) == b"x" * 10

    def test_hit_and_miss_counters(self):
        cache = ResponseCache()
        admit(cache, key(0), TOKEN, b"v")
        cache.get(key(0), TOKEN)
        cache.get(key(1), TOKEN)
        cache.get(key(0), (9, 9, 9, 9, 9, 9))
        assert cache.hits == 1
        assert cache.misses == 2
