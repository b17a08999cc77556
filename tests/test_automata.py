import pytest

from tillst import syntax as s
from tillst import temporal as t
from tillst.automata import automaton_transitions
from tillst.syntax import ACCEPT
from tillst.parser import ParseError, parse_program


@pytest.fixture
def bme680(load_corpus):
    """The environment sensor of the smart-home corpus program."""
    (defn,) = load_corpus("smart_home.tsl").automata
    return defn


class TestBuiltinSensor:
    def test_shape(self, bme680):
        b = bme680
        assert len(b.transitions) == 7
        assert b.states == ("S0", "S1", "S2", "S3", "S4", "S5")
        assert b.initial == "S0"

    def test_configuration_choices(self, bme680):
        b = bme680
        got = {(tr.action.kind, tr.action.direction, tr.action.payload, tr.dst)
               for tr in automaton_transitions(b, "S0", 0, 12)}
        assert got == {("label", "recv", "L", "S1"), ("label", "recv", "R", "S2")}

    def test_gas_guard_released_at_thirty(self, bme680):
        b = bme680
        assert automaton_transitions(b, "S4", 0, 29) == []
        (tr,) = automaton_transitions(b, "S4", 0, 30)
        assert tr.extern == "read_gas" and tr.dst == "S5"

    def test_cooldown_guard(self, bme680):
        b = bme680
        assert automaton_transitions(b, "S5", 30, 49) == []
        (tr,) = automaton_transitions(b, "S5", 30, 50)
        assert tr.dst == ACCEPT

    def test_accept_is_terminal(self, bme680):
        assert automaton_transitions(bme680, ACCEPT, 0, 10**6) == []

    def test_guard_monotone_in_time(self, bme680):
        b = bme680
        for state in ("S0", "S2", "S4", "S5"):
            for entry in (0, 7):
                enabled_at = [bool(automaton_transitions(b, state, entry, now))
                              for now in range(entry, entry + 60)]
                # once enabled, stays enabled while the state is unchanged
                assert enabled_at == sorted(enabled_at)


class TestLoadAutomata:
    def test_surface_bme680_matches_builtin(self, load_corpus):
        # configure (L = temperature only, R = plus air quality), report
        # readings, then shut down; heating takes 30 ticks, cool-down 20
        (loaded,) = load_corpus("smart_home.tsl").automata
        assert loaded.states == ("S0", "S1", "S2", "S3", "S4", "S5")
        assert loaded.initial == "S0"
        assert set(loaded.transitions) == {
            s.AutoTransition("S0", 0, s.Action("label", "recv", "", "L"), "S1"),
            s.AutoTransition("S0", 0, s.Action("label", "recv", "", "R"), "S2"),
            s.AutoTransition("S1", 0, s.Action("value", "send", ""), "S3", "read_temp"),
            s.AutoTransition("S3", 0, s.Action("close", "send", ""), ACCEPT),
            s.AutoTransition("S2", 0, s.Action("value", "send", ""), "S4", "read_temp"),
            s.AutoTransition("S4", 30, s.Action("value", "send", ""), "S5", "read_gas"),
            s.AutoTransition("S5", 20, s.Action("close", "send", ""), ACCEPT),
        }

    def test_empty_section(self):
        assert parse_program("").automata == ()


def parsed_transition(action: str) -> s.AutoTransition:
    prog = parse_program("extern fn read_gas() -> int;\n"
                         f"automaton a {{ state S0 init; S0 --[{action}]--> accept; }}")
    (tr,) = prog.automata[0].transitions
    return tr


class TestActionTemplates:
    @pytest.mark.parametrize("text,kind,direction", [
        ("?L", "label", "recv"), ("!R", "label", "send"),
        ("?cls", "close", "recv"), ("!cls", "close", "send"),
        ("?chan", "chan", "recv"), ("!chan", "chan", "send"),
        ("?val", "value", "recv"),
    ])
    def test_parse(self, text, kind, direction):
        tr = parsed_transition(text)
        label = text[1:] if kind == "label" else None
        assert tr.action == s.Action(kind, direction, "", label)
        assert tr.extern is None

    def test_value_send_needs_extern(self):
        tr = parsed_transition("!val(read_gas)")
        assert (tr.action, tr.extern) == (s.Action("value", "send", ""), "read_gas")
        with pytest.raises(ParseError):
            parsed_transition("!val")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parsed_transition("~zap")
