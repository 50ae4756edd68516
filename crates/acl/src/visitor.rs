//! ACL construction as a [`TraceVisitor`]: the taint sweep consumes the
//! event stream once, so it can share a walk with any other analysis driven
//! by the same [`ftkr_vm::EventCursor`].

use ftkr_vm::{EventCtx, Location, Trace, TraceVisitor, WalkEnd};

use crate::table::{AclTable, TaintSweep};

/// Builds an [`AclTable`] from the events it visits.
///
/// The sweep needs the full trace's last-access knowledge up front (a
/// corrupted location dies at its *final* access), so the visitor is
/// constructed against the trace it will be driven over.  Feeding it a
/// different event stream than that trace's is a logic error.
pub struct AclVisitor {
    sweep: TaintSweep,
    table: AclTable,
}

impl AclVisitor {
    /// A visitor that will build the ACL table of `trace` for the given seed
    /// corruptions.
    pub fn new(trace: &Trace, seeds: &[(usize, Location)]) -> AclVisitor {
        AclVisitor {
            sweep: TaintSweep::new(trace, seeds),
            table: AclTable {
                counts: Vec::with_capacity(trace.len()),
                tainted_reads: Vec::with_capacity(trace.len()),
                ..Default::default()
            },
        }
    }

    /// The finished table (valid after the cursor delivered `on_finish`).
    pub fn into_table(self) -> AclTable {
        self.table
    }
}

impl TraceVisitor for AclVisitor {
    fn on_event(&mut self, ctx: &EventCtx<'_>) {
        self.sweep.step(
            ctx.index,
            ctx.event,
            ctx.reads,
            ctx.locations,
            &mut self.table,
        );
    }

    fn on_finish(&mut self, end: &WalkEnd<'_>) {
        self.sweep.finish(end.locations, &mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use ftkr_vm::{EventCursor, EventKind, ResolvedEvent, Value};

    #[test]
    fn cursor_driven_visitor_equals_the_standalone_builder() {
        let loc = |k: u64| Location::mem(k);
        let ev = |reads: Vec<u64>, write: Option<u64>| ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::FAdd),
            reads: reads.into_iter().map(|k| (loc(k), Value::F(1.0))).collect(),
            write: write.map(|k| (loc(k), Value::F(2.0))),
        };
        let trace = Trace::from_resolved(vec![
            ev(vec![], Some(1)),
            ev(vec![1, 9], Some(2)),
            ev(vec![9], Some(1)),
            ev(vec![2], Some(3)),
        ]);
        let seeds = [(0usize, loc(1)), (1, loc(77))];

        let mut visitor = AclVisitor::new(&trace, &seeds);
        EventCursor::new(&trace).run(&mut [&mut visitor]);
        let via_cursor = visitor.into_table();
        let direct = AclTable::build(&trace, &seeds);

        assert_eq!(via_cursor.counts, direct.counts);
        assert_eq!(via_cursor.tainted_reads, direct.tainted_reads);
        assert_eq!(via_cursor.births, direct.births);
        assert_eq!(via_cursor.final_corrupted, direct.final_corrupted);
        assert_eq!(via_cursor.deaths.len(), direct.deaths.len());
        for (a, b) in via_cursor.deaths.iter().zip(&direct.deaths) {
            assert_eq!(
                (a.event, a.location, a.cause, a.line),
                (b.event, b.location, b.cause, b.line)
            );
        }
    }
}
