"""Tests for repro.netlist.net and design."""

from __future__ import annotations

import pytest

from repro.grid.geometry import Point, Rect
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.design import Design, check_pins
from repro.netlist.net import Net, Netlist, Pin, pin_table


class TestPin:
    def test_point_and_node(self):
        pin = Pin(3, 4, 2)
        assert pin.point == Point(3, 4)
        assert pin.as_node() == (3, 4, 2)

    def test_ordering(self):
        assert Pin(1, 2, 0) < Pin(1, 2, 1) < Pin(1, 3, 0) < Pin(2, 0, 0)


class TestNet:
    def test_requires_pins(self):
        with pytest.raises(ValueError):
            Net("empty", [])

    def test_bbox_and_hpwl(self):
        net = Net("n", [Pin(2, 3, 0), Pin(8, 1, 1), Pin(5, 9, 0)])
        assert net.bbox == Rect(2, 1, 8, 9)
        assert net.hpwl == 14

    def test_unique_points_dedupes(self):
        net = Net("n", [Pin(2, 3, 0), Pin(2, 3, 2), Pin(5, 5, 0)])
        assert net.unique_points() == [Point(2, 3), Point(5, 5)]

    def test_pins_at(self):
        net = Net("n", [Pin(2, 3, 0), Pin(2, 3, 2), Pin(5, 5, 0)])
        assert len(net.pins_at(Point(2, 3))) == 2
        assert net.pins_at(Point(9, 9)) == []

    def test_single_pin_net(self):
        net = Net("n", [Pin(4, 4, 1)])
        assert net.hpwl == 0
        assert net.n_pins == 1


class TestNetlist:
    def test_iteration_preserves_order(self):
        nets = [Net(f"n{i}", [Pin(i, i, 0)]) for i in range(5)]
        netlist = Netlist(nets)
        assert [n.name for n in netlist] == [f"n{i}" for i in range(5)]

    def test_duplicate_name_rejected(self):
        netlist = Netlist([Net("a", [Pin(0, 0, 0)])])
        with pytest.raises(ValueError):
            netlist.add(Net("a", [Pin(1, 1, 0)]))

    def test_lookup(self):
        netlist = Netlist([Net("a", [Pin(0, 0, 0)])])
        assert netlist.by_name("a").name == "a"
        assert "a" in netlist
        assert "b" not in netlist

    def test_total_pins(self, tiny_netlist):
        assert tiny_netlist.total_pins() == 7

    def test_indexing(self, tiny_netlist):
        assert tiny_netlist[0].name == "n2"


class TestDesign:
    def _design(self, nets):
        graph = GridGraph(12, 10, LayerStack(5))
        return Design("d", graph, Netlist(nets))

    def test_counts(self, tiny_netlist):
        graph = GridGraph(12, 10, LayerStack(5))
        design = Design("d", graph, tiny_netlist)
        assert design.n_nets == 2
        assert design.n_gcells == 120
        assert design.n_layers == 5

    def test_validate_accepts_in_bounds(self, tiny_netlist):
        graph = GridGraph(12, 10, LayerStack(5))
        Design("d", graph, tiny_netlist).validate()

    def test_validate_rejects_off_grid_pin(self):
        design = self._design([Net("bad", [Pin(99, 0, 0)])])
        with pytest.raises(ValueError):
            design.validate()

    def test_validate_rejects_off_stack_layer(self):
        design = self._design([Net("bad", [Pin(0, 0, 9)])])
        with pytest.raises(ValueError):
            design.validate()

    def test_validate_names_the_first_bad_pin_in_netlist_order(self):
        nets = [
            Net("ok", [Pin(0, 0, 0), Pin(11, 9, 4)]),
            Net("layer", [Pin(1, 1, 0), Pin(2, 2, 5)]),
            Net("grid", [Pin(-1, 0, 0)]),
        ]
        with pytest.raises(ValueError, match=r"^net 'layer' pin layer 5 outside the 5-layer stack$"):
            self._design(nets).validate()
        with pytest.raises(ValueError, match=r"^net 'grid' pin \(-1,0\) off the 12x10 grid$"):
            self._design(nets[::-1]).validate()
        # An off-grid pin is reported as such even on a bad layer.
        with pytest.raises(ValueError, match="off the 12x10 grid"):
            self._design([Net("both", [Pin(0, 10, 7)])]).validate()

    def test_check_pins_takes_any_net_sequence(self):
        graph = GridGraph(12, 10, LayerStack(5))
        check_pins(iter([Net("a", [Pin(3, 3, 1)])]), graph)
        with pytest.raises(ValueError, match="net 'b'"):
            check_pins((Net("a", [Pin(3, 3, 1)]), Net("b", [Pin(12, 3, 1)])), graph)


class TestPinTable:
    def test_rows_and_counts(self):
        pins, counts = pin_table([Net("a", [Pin(1, 2, 3), Pin(4, 5, 0)]), Net("b", [Pin(6, 7, 1)])])
        assert pins.tolist() == [[1, 4, 6], [2, 5, 7], [3, 0, 1]]
        assert counts.tolist() == [2, 1]

    def test_netlist_table_follows_additions(self):
        netlist = Netlist([Net("a", [Pin(1, 2, 3)])])
        assert netlist.pin_table()[1].tolist() == [1]
        netlist.add(Net("b", [Pin(0, 0, 0), Pin(1, 1, 1)]))
        pins, counts = netlist.pin_table()
        assert counts.tolist() == [1, 2] and pins[0].tolist() == [1, 0, 1]
