#include "exec/row_stage.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace tilesparse {

const MatrixF& RowStage::gather(const std::vector<const MatrixF*>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("RowStage::gather: no parts");
  }
  const std::size_t cols = parts.front()->cols();
  std::size_t total_rows = 0;
  for (const MatrixF* part : parts) {
    if (part == nullptr || part->cols() != cols || part->rows() == 0) {
      throw std::invalid_argument(
          "RowStage::gather: parts must be non-empty row blocks sharing one "
          "column count");
    }
    total_rows += part->rows();
  }
  // The staged buffer keeps its storage across flushes, so steady
  // traffic stops allocating once the widest batch has been seen.
  ensure_shape(buffer_, total_rows, cols);
  slices_.clear();
  slices_.reserve(parts.size());
  std::size_t row = 0;
  for (const MatrixF* part : parts) {
    std::memcpy(buffer_.row(row).data(), part->data(),
                part->rows() * cols * sizeof(float));
    slices_.push_back(Slice{row, part->rows()});
    row += part->rows();
  }
  return buffer_;
}

MatrixF RowStage::scatter(const MatrixF& batched, const Slice& slice) {
  if (slice.rows == 0 || slice.row0 + slice.rows > batched.rows()) {
    throw std::invalid_argument("RowStage::scatter: slice out of range (" +
                                std::to_string(slice.row0) + "+" +
                                std::to_string(slice.rows) + " of " +
                                std::to_string(batched.rows()) + " rows)");
  }
  MatrixF out(slice.rows, batched.cols());
  std::memcpy(out.data(), batched.row(slice.row0).data(),
              slice.rows * batched.cols() * sizeof(float));
  return out;
}

RowStage::Slice RowStage::map_groups(const Slice& in, std::size_t group_in,
                                     std::size_t group_out) {
  if (group_in == 0 || group_out == 0 || in.row0 % group_in != 0 ||
      in.rows % group_in != 0) {
    throw std::invalid_argument(
        "RowStage::map_groups: slice is not group-aligned");
  }
  return Slice{in.row0 / group_in * group_out, in.rows / group_in * group_out};
}

}  // namespace tilesparse
