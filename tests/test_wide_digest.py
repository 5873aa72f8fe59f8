"""Exactness beyond the pinned points: seeded small runs off the default costs.

``GOLDEN_DIGEST``, ``PINNED_ROWS`` and the bench rows run at default costs. The
runs of ``wide_configs`` draw zero and few-nanosecond costs, one-credit links,
a one-entry IOTLB, 8-byte payloads and small logs, where ties between events
are common, so a change that reorders a tie moves this digest too.
"""

from wide_configs import outcome, wide_configs, wide_digest

# wide_digest() of every config's outcome, in generator order. A change that
# moves it changes a simulated number on some input; tools/compare_trees.py
# run against the parent names the configs and fields that moved.
WIDE_DIGEST = 2166857569


def test_wide_digest_is_pinned():
    results = [outcome(config) for config in wide_configs()]
    assert all(r["check"] for r in results if "error" not in r)
    assert wide_digest(results) == WIDE_DIGEST
