"""chain_hook: several listeners share one single-slot observer hook."""

from repro.sim import chain_hook


class Slot:
    hook = None


def test_empty_slot_gets_the_listener_itself():
    slot = Slot()

    def fn(x):
        return None

    chain_hook(slot, "hook", fn)
    assert slot.hook is fn


def test_listeners_run_in_the_order_added_with_the_same_arguments():
    slot, seen = Slot(), []
    for tag in "abc":
        chain_hook(slot, "hook", lambda *args, tag=tag: seen.append((tag, args)))
    slot.hook(1, "x")
    assert seen == [("a", (1, "x")), ("b", (1, "x")), ("c", (1, "x"))]


def test_a_listener_installed_by_hand_stays_first():
    slot, seen = Slot(), []
    slot.hook = lambda v: seen.append(("own", v))
    chain_hook(slot, "hook", lambda v: seen.append(("added", v)))
    slot.hook(7)
    assert seen == [("own", 7), ("added", 7)]
