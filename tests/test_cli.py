import pytest

from interestsim.cli import _parse_int_list


@pytest.mark.parametrize(
    "text, expected",
    [
        ("5..20", tuple(range(5, 21))),
        ("1..12", tuple(range(1, 13))),
        ("3..3", (3,)),
        ("10,15", (10, 15)),
    ],
)
def test_parse_int_list(text, expected):
    assert _parse_int_list(text) == expected
