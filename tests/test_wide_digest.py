"""The 464 wide configs' entries of ``tests/exact.json`` (``kind#index``):
small seeded runs off the default costs, where ties between events are
common, so a change that reorders a tie moves one of them."""


def test_wide_digest_is_pinned(exact):
    lines = exact("*#*")
    assert not lines, "\n".join(lines)
