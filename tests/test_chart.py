"""Chart rendering: layout determinism, SVG structure, ASCII fallback."""

import xml.etree.ElementTree as ET

import pytest

from synto.chart import ChartLayout, ascii_chart, label_for, svg_chart
from synto.graded import VerificationError
from synto.summand import GeneratorTable, TableEntry, syntomic_table


class TestLabels:
    @pytest.mark.parametrize("name,label", [
        ("1", "1"),
        ("del", "∂"),
        ("lambda1", "λ₁"),
        ("t^2*lambda1*lambda2", "t²λ₁λ₂"),
        ("mu^3", "μ³"),
        ("t^-12*lambda2", "t⁻¹²λ₂"),
        ("del*lambda1", "∂λ₁"),
    ])
    def test_label_for(self, name, label):
        assert label_for(name) == label

    def test_unknown_symbol(self):
        with pytest.raises(VerificationError):
            label_for("nabla^2")


class TestLayout:
    def test_nudges_for_coincident_spots(self):
        table = syntomic_table(2)
        layout = ChartLayout.from_table(table)
        assert len(layout.glyphs) == 12
        by_spot = {}
        for name, deg, w, _origin, _label, nudge in layout.glyphs:
            by_spot.setdefault((deg, w), []).append(nudge)
        # lambda1 and t^2*lambda2 share (3, 1): nudges 0 and 11
        assert sorted(by_spot[(3, 1)]) == [0, 11]
        for spot, nudges in by_spot.items():
            assert nudges == [11 * k for k in range(len(nudges))]

    def test_ranges(self):
        layout = ChartLayout.from_table(syntomic_table(2))
        assert layout.deg_range == (-1, 10)
        assert layout.weight_range == (0, 3)

    def test_duplicate_names_rejected(self):
        table = GeneratorTable(2, [TableEntry("mu", 8, 0, "kernel")])
        table.entries = table.entries + table.entries  # bypass the ctor check
        with pytest.raises(VerificationError, match="duplicate"):
            ChartLayout.from_table(table)

    def test_empty_table(self):
        table = GeneratorTable(2, [])
        assert ChartLayout.from_table(table).glyphs == []
        assert ascii_chart(table) == "(empty chart)\n"


class TestSVG:
    def test_valid_xml_with_version_comment(self):
        table = syntomic_table(2)
        svg = svg_chart(table)
        assert svg.startswith("<?xml")
        assert "generated_by synto" in svg
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_deterministic(self):
        table = syntomic_table(3)
        assert svg_chart(table) == svg_chart(table)

    def test_no_timestamps(self):
        svg = svg_chart(syntomic_table(2))
        for needle in ("date", "time", "202"):
            assert needle not in svg.lower()

    def test_glyph_count_and_colors(self):
        table = syntomic_table(2)
        svg = svg_chart(table)
        assert svg.count("<circle") == 12
        assert svg.count("#1f3b73") == 8  # kernel classes
        assert svg.count("#a33b3b") == 4  # cokernel classes
        assert svg.count("<text") >= 12


class TestAscii:
    def test_grid_and_legend(self):
        table = syntomic_table(2)
        text = ascii_chart(table)
        lines = text.splitlines()
        assert lines[0].startswith("w3 |")
        assert any(line.startswith("   +") for line in lines)
        assert any("λ₁λ₂(10)" in line for line in lines)
        # two classes share (3, 1) and (6, 2): those cells show "2"
        w1_row = next(line for line in lines if line.startswith("w1 |"))
        assert "2" in w1_row

    def test_single_class_cell_is_star(self):
        table = GeneratorTable(2, [TableEntry("mu", 8, 0, "kernel")])
        text = ascii_chart(table)
        assert "*" in text.splitlines()[0]
