"""The contract of the records built in bulk: a lexicon row, a frame
element, an argument slot, a decoded tag and a case-study pair are
immutable values, so the one cached instance that ``decode_postag`` or
``parse_frame`` hands to every caller cannot be changed by any of them.
That the golden lexicon reads and writes back byte for byte is
``test_lexicon.test_golden_file_reserializes_byte_identically``."""

import pytest

from grcvalency.casestudy import TrVObjPair
from grcvalency.frames import COLUMNS, ArgumentSlot, FrameElement, LexiconEntry, parse_frame
from grcvalency.postag import UNSPECIFIED, PosTag, decode_postag


def _copy(text: str) -> str:
    """An equal string that is not the same object."""
    return "".join(list(text))


# each record from fresh copies of its values; a second value changes one field
RECORDS = {
    "LexiconEntry": lambda value="φέρω": LexiconEntry(
        _copy("Homer"), _copy("Iliad"), "1", _copy(value), "active", 4, 2,
        "active_OBJ[accusative]", "active_OBJ[accusative]{ἵππος}",
    ),
    "FrameElement": lambda value="φέρω": FrameElement(_copy(value), "OBJ", "accusative", None),
    "ArgumentSlot": lambda value="φέρω": ArgumentSlot(
        _copy(value), "OBJ_CO", "accusative", _copy("ἵππος"), 3, 2
    ),
    "PosTag": lambda value="verb": PosTag(pos=_copy(value), mood="indicative"),
    "TrVObjPair": lambda value="φέρω": TrVObjPair(
        _copy(value), _copy("ἵππος"), 4, 2, 3, (_copy("Homer"), _copy("Iliad"))
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_rejects_assignment_to_each_field(name):
    record = RECORDS[name]()
    before = repr(record)
    for field in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, field, "ἄγω")
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_make_equal_records_with_equal_hashes(name):
    first, second, other = RECORDS[name](), RECORDS[name](), RECORDS[name]("ἄγω")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != other
    assert len({first, second, other}) == 2


def test_cached_instances_are_shared_and_cannot_change():
    tag = decode_postag("v3siia---")
    assert decode_postag("v3siia---") is tag
    with pytest.raises(AttributeError):
        tag.mood = "subjunctive"
    _, elements = parse_frame("active_(εἰς)OBJ[accusative],SBJ[nominative]")
    assert parse_frame("active_(εἰς)OBJ[accusative],SBJ[nominative]")[1] is elements
    with pytest.raises(AttributeError):
        elements[0].mediator = None
    assert PosTag().case == UNSPECIFIED and not PosTag().has_case


@pytest.mark.parametrize(
    "fields",
    [
        (None, "OBJ", "accusative", "ἵππος"),
        ("εἰς", "OBJ_CO_AP", "accusative", None),
        (None, "SBJ_AP", "nominative", "ἀνήρ"),
        ("ὅτι", "OCOMP", "indicative", ""),
    ],
)
def test_a_slot_reads_as_the_element_with_its_four_fields(fields):
    slot, element = ArgumentSlot(*fields, 9, 4), FrameElement(*fields)
    assert slot.base_relation == element.base_relation
    assert slot.render() == element.render()
    assert (slot.mediator, slot.label, slot.realization, slot.filler) == fields
    assert (slot.filler_token_id, slot.surface_position) == (9, 4)


def test_an_entry_takes_its_fields_in_column_order():
    values = ("Homer", "Iliad", "1", "φέρω", "active", 4, 2, "active_SBJ[nominative]", "x")
    entry = LexiconEntry(*values)
    assert tuple(getattr(entry, column) for column in COLUMNS) == values
    assert LexiconEntry(**dict(zip(COLUMNS, values))) == entry
