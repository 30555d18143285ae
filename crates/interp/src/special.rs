//! Runtime specials: the intrinsics the transforms insert (locks, queues,
//! transactions, `__par_invoke`) decoded once into a [`SpecialOp`].
//!
//! Every executor sees an intrinsic call as a pending special carrying
//! its `IntrinsicId`. Executors build a [`SpecialOp`] table over the
//! module's intrinsics once — [`SpecialOp::decode_table`] — and dispatch
//! on the enum, so the special-name list lives here and nowhere else and
//! no string comparison runs per call.

use commset_ir::IntrinsicTable;

/// What a call to one intrinsic means to an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialOp {
    /// `__lock_acquire(l)`: take the section's rank-`l` lock.
    LockAcquire,
    /// `__lock_release(l)`: release the rank-`l` lock.
    LockRelease,
    /// `__q_push(q, v)` / `__q_push_f(q, v)`: push `v`'s bits onto queue `q`.
    QueuePush,
    /// `__q_pop(q)` / `__q_pop_f(q)`: pop from queue `q`; `float` says the
    /// bits decode as a float.
    QueuePop {
        /// True for `__q_pop_f`.
        float: bool,
    },
    /// `__tx_begin()`: open a transaction.
    TxBegin,
    /// `__tx_commit()`: commit the open transaction.
    TxCommit,
    /// `__par_invoke(section)`: run a parallel section.
    ParInvoke,
    /// Any other intrinsic: a call into the workload's world.
    World,
}

impl SpecialOp {
    /// Decodes one intrinsic name.
    pub fn decode(name: &str) -> SpecialOp {
        match name {
            "__lock_acquire" => SpecialOp::LockAcquire,
            "__lock_release" => SpecialOp::LockRelease,
            "__q_push" | "__q_push_f" => SpecialOp::QueuePush,
            "__q_pop" => SpecialOp::QueuePop { float: false },
            "__q_pop_f" => SpecialOp::QueuePop { float: true },
            "__tx_begin" => SpecialOp::TxBegin,
            "__tx_commit" => SpecialOp::TxCommit,
            "__par_invoke" => SpecialOp::ParInvoke,
            _ => SpecialOp::World,
        }
    }

    /// Decodes every intrinsic of `table`; the result is indexed by
    /// `IntrinsicId`.
    pub fn decode_table(table: &IntrinsicTable) -> Vec<SpecialOp> {
        table
            .iter()
            .map(|(name, _)| SpecialOp::decode(name))
            .collect()
    }

    /// True for the runtime specials — everything but a world call.
    pub fn is_runtime(self) -> bool {
        self != SpecialOp::World
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;

    #[test]
    fn decodes_every_special_and_defaults_to_world() {
        for (name, op) in [
            ("__lock_acquire", SpecialOp::LockAcquire),
            ("__lock_release", SpecialOp::LockRelease),
            ("__q_push", SpecialOp::QueuePush),
            ("__q_push_f", SpecialOp::QueuePush),
            ("__q_pop", SpecialOp::QueuePop { float: false }),
            ("__q_pop_f", SpecialOp::QueuePop { float: true }),
            ("__tx_begin", SpecialOp::TxBegin),
            ("__tx_commit", SpecialOp::TxCommit),
            ("__par_invoke", SpecialOp::ParInvoke),
            ("emit", SpecialOp::World),
            ("__lock", SpecialOp::World),
        ] {
            assert_eq!(SpecialOp::decode(name), op, "{name}");
            assert_eq!(op.is_runtime(), op != SpecialOp::World);
        }
    }

    #[test]
    fn table_is_indexed_by_intrinsic_id() {
        let mut t = IntrinsicTable::new();
        let emit = t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 1);
        let pop = t.register("__q_pop_f", vec![Type::Int], Type::Float, &[], &[], 0);
        let ops = SpecialOp::decode_table(&t);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[emit], SpecialOp::World);
        assert_eq!(ops[pop], SpecialOp::QueuePop { float: true });
    }
}
