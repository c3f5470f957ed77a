#pragma once
// Model-level batch entries: the bridge from nn/ models to the serving
// batcher (serve/batch/).
//
// A serving client does NOT hand the runtime a model call — it hands
// an activation (embedded token rows for BERT) plus an entry name, and
// the runtime coalesces activations from many clients into one wide-M
// graph run.  make_bert_entry packages a BertMini as such an entry:
// group_rows_in = seq (one request unit = one embedded sequence),
// group_rows_out = 1 (pooled logits row), and one graph, built by
// BertMini::append_exec_graph when the entry is made, that serves
// every batch size.
//
// This is also how BERT tasks evaluate (nn/prune_experiment.hpp): the
// accuracy a task reports comes from the same graphs serving runs.
//
// Lifetime: the model must outlive the entry, and the entry must be
// re-created (re-registered) after pack_weights / clear_packed_weights,
// artifact loads into the layers, or any change to the dense weights —
// its graph holds refs to the packed backends current when the entry
// was made, and binds the dense head too: an unpacked Linear (the
// classifier) packs its weight into GEMM panels when its node is added,
// so later edits to that weight do not reach the graph.  Nothing
// tracks either; a fresh entry is the invalidation.

#include <memory>
#include <string>

#include "exec/batch_entry.hpp"
#include "nn/bert_mini.hpp"

namespace tilesparse {

/// Batch entry over a BertMini encoder stack.  Inputs are embed()
/// activations: (k * seq) x dim rows per request; outputs are k x
/// classes logits.  Runs are serialized inside the entry: the graph's
/// slots are reused from run to run.  The graph's host nodes
/// write no layer state (they run the layers' infer() kernels).
std::unique_ptr<GraphBatchEntry> make_bert_entry(std::string name,
                                                 BertMini& model);

}  // namespace tilesparse
