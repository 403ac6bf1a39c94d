import pytest

from schurkron import DomainError, SchurExpansion


class TestConstruction:
    def test_drops_zeros(self):
        e = SchurExpansion({(3, 1): 2, (2, 2): 0})
        assert (2, 2) not in e
        assert e.as_dict() == {(3, 1): 2}
        assert e.weight == 4

    def test_rejects_mixed_sizes(self):
        # a DomainError, like every refusal of caller input; it is a ValueError
        with pytest.raises(DomainError, match="mixed-size keys") as err:
            SchurExpansion({(3, 1): 1, (2, 1): 1})
        assert isinstance(err.value, ValueError)

    def test_empty(self):
        e = SchurExpansion()
        assert not e and len(e) == 0 and e.weight is None
        assert e.is_positive  # vacuously
        assert e.max_coefficient() == 0

    def test_lookup_defaults_to_zero(self):
        e = SchurExpansion({(2, 1): 3})
        assert e[(2, 1)] == 3
        assert e[(3,)] == 0


class TestArithmetic:
    def test_add_sub_cancel(self):
        a = SchurExpansion({(3, 1): 1, (2, 2): 2})
        b = SchurExpansion({(2, 2): 2, (2, 1, 1): 1})
        diff = a - b
        assert diff.as_dict() == {(3, 1): 1, (2, 1, 1): -1}
        assert not diff.is_positive
        assert (a - a) == SchurExpansion()
        total = a + b
        assert total[(2, 2)] == 4

    def test_items_desc_is_lex_sorted(self):
        e = SchurExpansion({(2, 2): 1, (4,): 1, (2, 1, 1): 1, (3, 1): 1})
        assert [nu for nu, _ in e.items_desc()] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
        ]

    def test_dict_equality(self):
        e = SchurExpansion({(2, 1): 1})
        assert e == {(2, 1): 1}
        assert e == {(2, 1): 1, (3,): 0}
