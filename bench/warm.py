"""What a user's process does before its first request: import the CLI and
fill the lazy ``legal_fills`` cache.

``python3 bench/warm.py SRC`` does exactly that in a fresh process; the
benchmark times such processes for ``setup_s``.
"""

import sys

#: legal_fills(r) for r below this covers every walk the census makes (n <= 6).
WARM_FILLS = 6


def set_up(src: str) -> None:
    if src not in sys.path:
        sys.path.insert(0, src)
    import staircase_tableaux.cli  # noqa: F401
    from staircase_tableaux.enumerator import legal_fills

    for r in range(WARM_FILLS):
        legal_fills(r)


if __name__ == "__main__":
    set_up(sys.argv[1])
