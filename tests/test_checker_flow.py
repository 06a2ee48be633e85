"""Checker tests: control-flow joins (Figure 5), the join abstraction
(§3), and loop-invariant inference."""

from repro.diagnostics import Code

from conftest import POINT, assert_ok, assert_rejected, check, codes


class TestJoins:
    def test_figure5_data_correlation_rejected(self):
        # Memory-safe in fact, but the key sets disagree at the join —
        # the classic limitation of type-based checking (§2.4).
        result = codes(POINT + """
void main() {
    tracked(R) region rgn = Region.create();
    R:point pt = new(rgn) point {x=4; y=2;};
    if (pt.x > 0) {
        pt.y = 0;
        Region.delete(rgn);
    } else {
        pt.y = pt.x;
    }
    if (pt.x <= 0) {
        Region.delete(rgn);
    }
}
""")
        assert Code.JOIN_MISMATCH in result

    def test_figure5_fix_with_keyed_variant(self):
        # The paper's prescribed fix: make the correlation explicit
        # with a keyed variant and switch on it.
        assert_ok(POINT + """
void main() {
    tracked(R) region rgn = Region.create();
    R:point pt = new(rgn) point {x=4; y=2;};
    tracked opt_key<R> status;
    if (pt.x > 0) {
        pt.y = 0;
        Region.delete(rgn);
        status = 'NoKey;
    } else {
        pt.y = pt.x;
        status = 'SomeKey{R};
    }
    switch (status) {
        case 'NoKey:
            int done = 0;
        case 'SomeKey:
            Region.delete(rgn);
    }
}
""")

    def test_both_branches_delete_ok(self):
        assert_ok(POINT + """
void f(bool c) {
    tracked(R) region rgn = Region.create();
    if (c) {
        Region.delete(rgn);
    } else {
        Region.delete(rgn);
    }
}
""")

    def test_state_disagreement_at_join(self):
        assert_rejected("""
void f(bool c) {
    sockaddr addr = new sockaddr { host = "h"; port = 1; };
    tracked(S) sock s = Socket.socket('UNIX, 'STREAM, 0);
    if (c) {
        Socket.bind(s, addr);
    }
    Socket.close(s);
}
""", Code.JOIN_MISMATCH)

    def test_same_transition_both_branches_ok(self):
        assert_ok("""
void f(bool c) {
    sockaddr a1 = new sockaddr { host = "h"; port = 1; };
    sockaddr a2 = new sockaddr { host = "h"; port = 2; };
    tracked(S) sock s = Socket.socket('UNIX, 'STREAM, 0);
    if (c) {
        Socket.bind(s, a1);
    } else {
        Socket.bind(s, a2);
    }
    Socket.listen(s, 4);
    Socket.close(s);
}
""")

    def test_join_abstraction_renames_branch_local_keys(self):
        # Each branch creates its own region; the α-abstraction (§3)
        # unifies them through the variable binding.
        assert_ok("""
void f(bool c) {
    tracked region rgn;
    if (c) {
        rgn = Region.create();
    } else {
        rgn = Region.create();
    }
    Region.delete(rgn);
}
""")

    def test_early_return_branch_is_not_joined(self):
        assert_ok(POINT + """
int f(bool c) {
    tracked(R) region rgn = Region.create();
    if (c) {
        Region.delete(rgn);
        return 0;
    }
    R:point p = new(rgn) point {x=1; y=2;};
    int v = p.x;
    Region.delete(rgn);
    return v;
}
""")

    def test_branch_leak_detected_even_with_else_return(self):
        assert_rejected("""
int f(bool c) {
    tracked(R) region rgn = Region.create();
    if (c) {
        return 1;
    }
    Region.delete(rgn);
    return 0;
}
""", Code.KEY_LEAKED)

    def test_nested_ifs_consistent(self):
        assert_ok(POINT + """
void f(int a, int b) {
    tracked(R) region rgn = Region.create();
    R:point p = new(rgn) point {x=1; y=2;};
    if (a > 0) {
        if (b > 0) {
            p.x += a;
        } else {
            p.x -= a;
        }
    } else {
        p.y = b;
    }
    Region.delete(rgn);
}
""")


class TestLoops:
    def test_plain_counting_loop(self):
        assert_ok("""
int f(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
        acc += i;
        i++;
    }
    return acc;
}
""")

    def test_loop_with_stable_key_set(self):
        assert_ok(POINT + """
void f(int n) {
    tracked(R) region rgn = Region.create();
    R:point p = new(rgn) point {x=0; y=0;};
    int i = 0;
    while (i < n) {
        p.x += i;
        i++;
    }
    Region.delete(rgn);
}
""")

    def test_region_created_each_iteration_rejected(self):
        # The key set grows every iteration: no invariant exists.
        result = codes("""
void f(int n) {
    int i = 0;
    while (i < n) {
        tracked(R) region rgn = Region.create();
        i++;
    }
}
""")
        assert Code.LOOP_NO_INVARIANT in result or Code.KEY_LEAKED in result

    def test_balanced_create_delete_inside_loop_ok(self):
        assert_ok(POINT + """
void f(int n) {
    int i = 0;
    while (i < n) {
        tracked(R) region rgn = Region.create();
        R:point p = new(rgn) point {x=i; y=0;};
        p.y = p.x * 2;
        Region.delete(rgn);
        i++;
    }
}
""")

    def test_delete_inside_loop_rejected(self):
        # Deleting a pre-loop region inside the body breaks the
        # invariant (second iteration would double-delete).
        result = codes("""
void f(int n) {
    tracked(R) region rgn = Region.create();
    int i = 0;
    while (i < n) {
        Region.delete(rgn);
        i++;
    }
}
""")
        assert Code.LOOP_NO_INVARIANT in result or \
            Code.KEY_CONSUMED_MISSING in result

    def test_break_paths_join_consistently(self):
        assert_ok(POINT + """
int f(int n) {
    tracked(R) region rgn = Region.create();
    R:point p = new(rgn) point {x=0; y=0;};
    int i = 0;
    while (i < n) {
        if (p.x > 100) {
            break;
        }
        p.x += i;
        i++;
    }
    int v = p.x;
    Region.delete(rgn);
    return v;
}
""")

    def test_break_after_delete_disagrees_with_exit(self):
        assert_rejected("""
void f(int n) {
    tracked(R) region rgn = Region.create();
    int i = 0;
    while (i < n) {
        if (i == 2) {
            Region.delete(rgn);
            break;
        }
        i++;
    }
    Region.delete(rgn);
}
""", Code.JOIN_MISMATCH)

    def test_continue_after_delete_has_no_invariant(self):
        # The continue path reaches the back edge without the key: the
        # loop has no invariant, reported at the ``while``.  A checker
        # that drops the continue states from the back edge accepts
        # this program, which then deletes the region twice.
        report = check("""
void f(int n) {
    tracked(R) region rgn = Region.create();
    int i = 0;
    while (i < n) {
        if (i == 2) {
            Region.delete(rgn);
            continue;
        }
        i++;
    }
    Region.delete(rgn);
}
""")
        assert [(d.code, d.span.start.line) for d in report.diagnostics
                if d.code is Code.LOOP_NO_INVARIANT] == \
            [(Code.LOOP_NO_INVARIANT, 5)]

    def test_continue_keeps_invariant(self):
        assert_ok("""
int f(int n) {
    int i = 0;
    int acc = 0;
    while (i < n) {
        i++;
        if (i % 2 == 0) {
            continue;
        }
        acc += i;
    }
    return acc;
}
""")

    def test_transfer_loop_with_two_files(self):
        assert_ok("""
void transfer(tracked(A) FILE src, tracked(B) FILE dst, int n) [A, B] {
    int i = 0;
    while (i < n) {
        byte b = fgetb(src);
        fputb(dst, b);
        i++;
    }
}
""")

    def test_tracked_var_rebound_each_iteration(self):
        # Balanced delete + re-create through the same variable: the
        # invariant holds up to the key renaming of §3's abstraction.
        assert_ok("""
void f(int n) {
    tracked region r = Region.create();
    int i = 0;
    while (i < n) {
        Region.delete(r);
        r = Region.create();
        i++;
    }
    Region.delete(r);
}
""")

    def test_tracked_var_reassignment_outside_loop(self):
        assert_ok("""
void f() {
    tracked region r = Region.create();
    Region.delete(r);
    r = Region.create();
    Region.delete(r);
}
""")

    def test_reassignment_without_delete_still_leaks(self):
        assert_rejected("""
void f() {
    tracked region r = Region.create();
    r = Region.create();
    Region.delete(r);
}
""", Code.KEY_LEAKED)

    def test_close_inside_loop_rejected(self):
        result = codes("""
void f(tracked(A) FILE src, int n) [-A] {
    int i = 0;
    while (i < n) {
        fclose(src);
        i++;
    }
}
""")
        assert Code.LOOP_NO_INVARIANT in result or \
            Code.KEY_CONSUMED_MISSING in result


class TestReachability:
    def test_missing_return_detected(self):
        assert_rejected("""
int f(bool c) {
    if (c) {
        return 1;
    }
}
""", Code.MISSING_RETURN)

    def test_return_in_both_branches_ok(self):
        assert_ok("""
int f(bool c) {
    if (c) {
        return 1;
    } else {
        return 2;
    }
}
""")

    def test_void_function_may_fall_off(self):
        assert_ok("void f() { int x = 1; }")

    def test_every_exit_checked_against_postcondition(self):
        # The early return leaks; the late one is fine.
        assert_rejected("""
int f(bool c) {
    tracked(R) region rgn = Region.create();
    if (c) {
        return 1;
    }
    Region.delete(rgn);
    return 0;
}
""", Code.KEY_LEAKED)
