#include "txn/txn_manager.h"

#include <gtest/gtest.h>

namespace youtopia {
namespace {

class TxnManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_
                    .CreateTable("T", Schema({{"k", DataType::kInt64, false},
                                              {"v", DataType::kString, true}}))
                    .ok());
    txns_ = std::make_unique<TxnManager>(&storage_);
  }

  Tuple Row(int64_t k, const std::string& v) {
    return Tuple({Value::Int64(k), Value::String(v)});
  }

  StorageEngine storage_;
  std::unique_ptr<TxnManager> txns_;
};

TEST_F(TxnManagerTest, CommitMakesWritesVisible) {
  auto txn = txns_->Begin();
  ASSERT_TRUE(txns_->Insert(txn.get(), "T", Row(1, "a")).ok());
  ASSERT_TRUE(txns_->Commit(txn.get()).ok());
  EXPECT_EQ(storage_.TableSize("T").value(), 1u);
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
}

TEST_F(TxnManagerTest, AbortUndoesInsert) {
  auto txn = txns_->Begin();
  ASSERT_TRUE(txns_->Insert(txn.get(), "T", Row(1, "a")).ok());
  ASSERT_TRUE(txns_->Abort(txn.get()).ok());
  EXPECT_EQ(storage_.TableSize("T").value(), 0u);
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

TEST_F(TxnManagerTest, AbortUndoesDeletePreservingRowId) {
  auto rid = storage_.Insert("T", Row(1, "a"));
  ASSERT_TRUE(rid.ok());
  auto txn = txns_->Begin();
  ASSERT_TRUE(txns_->Delete(txn.get(), "T", rid.value()).ok());
  EXPECT_EQ(storage_.TableSize("T").value(), 0u);
  ASSERT_TRUE(txns_->Abort(txn.get()).ok());
  EXPECT_EQ(storage_.TableSize("T").value(), 1u);
  // Content restored under the original row id.
  auto row = storage_.Get("T", rid.value());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at(1).string_value(), "a");
}

TEST_F(TxnManagerTest, AbortUndoesUpdate) {
  auto rid = storage_.Insert("T", Row(1, "original"));
  ASSERT_TRUE(rid.ok());
  auto txn = txns_->Begin();
  ASSERT_TRUE(txns_->Update(txn.get(), "T", rid.value(), Row(1, "new")).ok());
  ASSERT_TRUE(txns_->Abort(txn.get()).ok());
  EXPECT_EQ(storage_.Get("T", rid.value())->at(1).string_value(), "original");
}

TEST_F(TxnManagerTest, AbortUndoesInReverseOrder) {
  auto txn = txns_->Begin();
  auto rid = txns_->Insert(txn.get(), "T", Row(1, "a"));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(txns_->Update(txn.get(), "T", rid.value(), Row(1, "b")).ok());
  ASSERT_TRUE(txns_->Delete(txn.get(), "T", rid.value()).ok());
  ASSERT_TRUE(txns_->Abort(txn.get()).ok());
  EXPECT_EQ(storage_.TableSize("T").value(), 0u);
}

TEST_F(TxnManagerTest, OperationsOnEndedTxnFail) {
  auto txn = txns_->Begin();
  ASSERT_TRUE(txns_->Commit(txn.get()).ok());
  EXPECT_EQ(txns_->Insert(txn.get(), "T", Row(1, "a")).status().code(),
            StatusCode::kAborted);
  EXPECT_EQ(txns_->Commit(txn.get()).code(), StatusCode::kAborted);
  EXPECT_EQ(txns_->Abort(txn.get()).code(), StatusCode::kAborted);
}

TEST_F(TxnManagerTest, ReadsSeeOwnWrites) {
  auto txn = txns_->Begin();
  auto rid = txns_->Insert(txn.get(), "T", Row(5, "mine"));
  ASSERT_TRUE(rid.ok());
  auto got = txns_->Get(txn.get(), "T", rid.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->at(1).string_value(), "mine");
  EXPECT_EQ(txns_->Scan(txn.get(), "T")->size(), 1u);
  ASSERT_TRUE(txns_->Commit(txn.get()).ok());
}

TEST_F(TxnManagerTest, WriterBlocksWriter) {
  auto t1 = txns_->Begin();
  auto t2 = txns_->Begin();
  ASSERT_TRUE(txns_->Insert(t1.get(), "T", Row(1, "a")).ok());
  // t2 cannot write T while t1 holds the X lock; lock wait times out.
  auto blocked = txns_->Insert(t2.get(), "T", Row(2, "b"));
  EXPECT_EQ(blocked.status().code(), StatusCode::kTimedOut);
  ASSERT_TRUE(txns_->Commit(t1.get()).ok());
  // After commit the lock is free.
  EXPECT_TRUE(txns_->Insert(t2.get(), "T", Row(2, "b")).ok());
  ASSERT_TRUE(txns_->Commit(t2.get()).ok());
}

TEST_F(TxnManagerTest, ProbeUnderTxn) {
  ASSERT_TRUE(storage_.CreateIndex("T", "k").ok());
  ASSERT_TRUE(storage_.Insert("T", Row(9, "x")).ok());
  auto txn = txns_->Begin();
  auto rows = txns_->Probe(txn.get(), "T", {{0, Value::Int64(9)}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  ASSERT_TRUE(txns_->Commit(txn.get()).ok());
}

TEST_F(TxnManagerTest, DistinctTxnIds) {
  auto a = txns_->Begin();
  auto b = txns_->Begin();
  EXPECT_NE(a->id(), b->id());
  ASSERT_TRUE(txns_->Abort(a.get()).ok());
  ASSERT_TRUE(txns_->Abort(b.get()).ok());
}

}  // namespace
}  // namespace youtopia
