import csv
import random
from collections import Counter, defaultdict

import pytest

from grcvalency.frames import LexiconEntry
from grcvalency.lexicon import (
    COLUMNS,
    FIGURE1_COLUMNS,
    Lexicon,
    LexiconFormatError,
    constructions_for_verb,
    diff_constructions,
    frame_frequencies,
    parse_frame,
    query_entries,
    read_lexicon,
    stats_basic,
    stats_by_author,
    write_lexicon,
)

from conftest import GOLDEN_LEXICON

PUBLISHED_ENTRY = LexiconEntry(
    author="Aeschylus",
    title="Persians",
    subdoc="703-706",
    verb="ἀνθίστημι",
    voice="medio-passive",
    sentence_id=2901046,
    root_id=7,
    frame="medio-passive_OBJ[dative],SBJ[nominative]",
    frame_fillers="medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}",
)


def _golden_rows():
    with open(GOLDEN_LEXICON, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle, delimiter="\t"))


def test_published_entry_roundtrips_bit_exactly(tmp_path):
    path = tmp_path / "one.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path)
    text = path.read_text(encoding="utf-8")
    assert "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}" in text
    again = tmp_path / "two.tsv"
    write_lexicon(read_lexicon(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert read_lexicon(path).entries == [PUBLISHED_ENTRY]


def test_empty_lexicon_roundtrip(tmp_path):
    path = tmp_path / "empty.tsv"
    write_lexicon(Lexicon([]), path)
    assert path.read_text(encoding="utf-8") == "\t".join(COLUMNS) + "\n"
    assert read_lexicon(path).entries == []


def test_golden_file_reserializes_byte_identically(tmp_path):
    path = tmp_path / "again.tsv"
    write_lexicon(read_lexicon(GOLDEN_LEXICON), path)
    assert path.read_bytes() == GOLDEN_LEXICON.read_bytes()


def _random_lexicon(n, seed):
    rng = random.Random(seed)
    authors = [("Homer", "Iliad"), ("Hesiod", "Theogony"), ("Plato", "Euthyphro")]
    verbs = ["φέρω", "ἄγω", "λύω", "ἔχω", "τίθημι"]
    voices = ["active", "middle", "medio-passive", "passive"]
    fillers = ["δῶρον", "ναῦς", "ἵππος", "μῦθος"]
    entries = []
    for i in range(n):
        author, title = rng.choice(authors)
        voice = rng.choice(voices)
        filler = rng.choice(fillers)
        realization = rng.choice(["accusative", "dative", "genitive", "infinitive"])
        mediator = rng.choice(["", "εἰς", "ἐν"])
        prefix = f"({mediator})" if mediator else ""
        frame = f"{voice}_{prefix}OBJ[{realization}]"
        entries.append(
            LexiconEntry(
                author=author,
                title=title,
                subdoc=f"{rng.randint(1, 24)}.{rng.randint(1, 900)}",
                verb=rng.choice(verbs),
                voice=voice,
                sentence_id=100000 + i,
                root_id=rng.randint(1, 40),
                frame=frame,
                frame_fillers=frame + "{" + filler + "}",
            )
        )
    entries.sort(key=lambda e: (e.author, e.title, e.verb, e.sentence_id, e.root_id))
    return Lexicon(entries)


def test_thousand_entry_roundtrip(tmp_path):
    lexicon = _random_lexicon(1000, seed=11)
    path = tmp_path / "big.tsv"
    byte_count = write_lexicon(lexicon, path)
    assert byte_count == path.stat().st_size
    loaded = read_lexicon(path)
    assert loaded.entries == lexicon.entries


def test_figure1_layout_drops_root_id(tmp_path):
    path = tmp_path / "fig1.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path, figure1_layout=True)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "\t".join(FIGURE1_COLUMNS)
    assert lines[1].split("\t") == [
        "Aeschylus",
        "Persians",
        "703-706",
        "ἀνθίστημι",
        "medio-passive",
        "2901046",
        "medio-passive_OBJ[dative],SBJ[nominative]",
        "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}",
    ]


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    good = "\t".join(
        ["Homer", "Iliad", "1.1", "φέρω", "active", "7", "2", "active_OBJ))", "x"]
    )
    path.write_text(
        "\t".join(COLUMNS) + "\n" + "too\tfew\n" + good.replace("7", "seven", 1) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert [lineno for lineno, _ in info.value.row_errors] == [2, 3]
    lenient = read_lexicon(path, lenient=True)
    assert lenient.entries == []
    assert len(lenient.row_errors) == 2


def test_write_rejects_fields_that_break_the_layout(tmp_path):
    import dataclasses

    broken = dataclasses.replace(PUBLISHED_ENTRY, title="Per\tsians")
    with pytest.raises(ValueError, match="TSV"):
        write_lexicon(Lexicon([broken]), tmp_path / "broken.tsv")


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        read_lexicon(path)
    empty = tmp_path / "none.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        read_lexicon(empty)


def test_indexes_are_consistent(sample_lexicon):
    total = len(sample_lexicon)
    assert sum(len(v) for v in sample_lexicon.by_verb.values()) == total


def test_stats_basic_against_brute_force(sample_lexicon):
    rows = _golden_rows()
    stats = stats_basic(sample_lexicon)
    assert stats == {
        "entries": len(rows),
        "unique_verb_lemmas": len({r["verb"] for r in rows}),
        "unique_frames": len({r["frame"] for r in rows}),
        "unique_frame_fillers": len({r["frame_fillers"] for r in rows}),
    }
    assert stats["entries"] == 63


def test_stats_basic_empty():
    assert stats_basic(Lexicon([])) == {
        "entries": 0,
        "unique_verb_lemmas": 0,
        "unique_frames": 0,
        "unique_frame_fillers": 0,
    }


def test_stats_by_author_partitions_the_lexicon(sample_lexicon):
    rows = _golden_rows()
    expected = sorted(Counter(r["author"] for r in rows).items())
    table = stats_by_author(sample_lexicon)
    assert table[:-1] == expected
    assert table[-1] == ("TOTAL", len(rows))
    assert sum(count for _, count in table[:-1]) == stats_basic(sample_lexicon)["entries"]


def test_stats_by_author_single_author():
    lexicon = Lexicon([PUBLISHED_ENTRY])
    assert stats_by_author(lexicon) == [("Aeschylus", 1), ("TOTAL", 1)]


def test_frame_frequencies_against_brute_force(sample_lexicon):
    rows = _golden_rows()
    counter = Counter(r["frame"] for r in rows)
    ranked = frame_frequencies(sample_lexicon)
    assert ranked == sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    assert sum(count for _, count in ranked) == len(rows)
    counts = [count for _, count in ranked]
    assert counts == sorted(counts, reverse=True)
    assert frame_frequencies(sample_lexicon, top_k=0) == []
    assert frame_frequencies(sample_lexicon, top_k=3) == ranked[:3]
    assert ranked[0] == ("active_SBJ[nominative]", 21)


def test_query_no_filters_returns_everything(sample_lexicon):
    assert query_entries(sample_lexicon) == sample_lexicon.entries


def test_query_by_verb_author_realization(sample_lexicon):
    hits = query_entries(sample_lexicon, verb="αἱρέω", realization="accusative", author="Homer")
    assert sorted(e.sentence_id for e in hits) == [1024, 1038]
    assert query_entries(sample_lexicon, realization="genitive") == query_entries(
        sample_lexicon, verb="αἱρέω", realization="genitive"
    )


def test_query_mediator_matches_hand_scan(sample_lexicon):
    hits = query_entries(sample_lexicon, mediator="εἰς")
    assert sorted(e.sentence_id for e in hits) == [1044, 1045, 2006, 3006]
    assert query_entries(sample_lexicon, mediator="ἐν", author="Homer")[0].sentence_id == 1046


def test_query_conjunction_equals_intersection(sample_lexicon):
    combined = query_entries(sample_lexicon, verb="φέρω", voice="active", frame_contains="OBJ")
    by_verb = set(id(e) for e in query_entries(sample_lexicon, verb="φέρω"))
    by_voice = set(id(e) for e in query_entries(sample_lexicon, voice="active"))
    by_frame = set(id(e) for e in query_entries(sample_lexicon, frame_contains="OBJ"))
    expected = [
        e for e in sample_lexicon.entries if id(e) in (by_verb & by_voice & by_frame)
    ]
    assert combined == expected


def test_constructions_counts_and_authors(sample_lexicon):
    records = constructions_for_verb(sample_lexicon, "φέρω")
    assert sum(r.count for r in records) == len(sample_lexicon.by_verb["φέρω"]) == 10
    counts = {r.frame: r.count for r in records}
    assert counts["active_OBJ[accusative],SBJ[nominative]"] == 3
    assert counts["active_OBJ[accusative]"] == 2
    by_frame = {r.frame: r.authors for r in records}
    assert by_frame["active_OBJ[accusative]"] == {"Homer", "Hesiod"}
    assert [r.count for r in records] == sorted((r.count for r in records), reverse=True)


def test_constructions_thresholds(sample_lexicon):
    multi_author = constructions_for_verb(sample_lexicon, "φέρω", min_authors=2)
    assert [r.frame for r in multi_author] == ["active_OBJ[accusative]"]
    frequent = constructions_for_verb(sample_lexicon, "φέρω", min_count=2)
    assert {r.frame for r in frequent} == {
        "active_SBJ[nominative]",
        "active_OBJ[accusative],SBJ[nominative]",
        "active_OBJ[accusative]",
    }
    assert constructions_for_verb(sample_lexicon, "φέρω", min_count=10**9) == []
    assert constructions_for_verb(sample_lexicon, "οὐκἔστι") == []
    for record in constructions_for_verb(sample_lexicon, "ἄγω"):
        assert record.count >= len(record.authors) >= 1


def test_constructions_against_brute_force(sample_lexicon):
    rows = [r for r in _golden_rows() if r["verb"] == "ἄγω"]
    counter = Counter(r["frame"] for r in rows)
    authors = defaultdict(set)
    for r in rows:
        authors[r["frame"]].add(r["author"])
    records = constructions_for_verb(sample_lexicon, "ἄγω")
    assert {r.frame: (r.count, frozenset(r.authors)) for r in records} == {
        frame: (count, frozenset(authors[frame])) for frame, count in counter.items()
    }


def test_diff_constructions(sample_lexicon):
    all_frames = [r.frame for r in constructions_for_verb(sample_lexicon, "φέρω")]
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", all_frames)
    assert only_lex == [] and only_known == []
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", [])
    assert [r.frame for r in only_lex] == all_frames
    assert only_known == []
    known = [
        "active_SBJ[nominative]",
        "active_OBJ[accusative]",
        "middle_OBJ[genitive]",
    ]
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", known)
    assert "active_SBJ[nominative]" not in {r.frame for r in only_lex}
    assert len(only_lex) == len(all_frames) - 2
    assert only_known == ["middle_OBJ[genitive]"]


def test_parse_frame_elements():
    voice, elements = parse_frame("medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}")
    assert voice == "medio-passive"
    assert [e.label for e in elements] == ["OBJ", "SBJ"]
    assert elements[0].filler == "σύ"
    voice, elements = parse_frame("active_(εἰς)OBJ_CO[accusative]")
    assert elements[0].mediator == "εἰς"
    assert elements[0].base_relation == "OBJ"
    with pytest.raises(LexiconFormatError):
        parse_frame("no-underscore")
    with pytest.raises(LexiconFormatError):
        parse_frame("active_OBJ[")
    with pytest.raises(LexiconFormatError):
        parse_frame("active_")
    with pytest.raises(ValueError):
        frame_frequencies(Lexicon([]), top_k=-1)
