// Seed-corpus generator for the fuzz targets. Emits one file per seed
// under <out-dir>/<target>/, derived from the statement shapes the
// existing tests and benches exercise, so every target starts with
// nonzero coverage instead of waiting for the mutator to stumble into
// the grammar / framing. Committed corpus files are regenerated with:
//
//   ./fuzz_make_seeds fuzz/corpus
//
// Deterministic: same binary, same bytes (no clocks, no randomness).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/codec.h"
#include "net/protocol.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"
#include "wal/wal_record.h"

namespace fs = std::filesystem;
namespace net = youtopia::net;
using youtopia::Status;
using youtopia::Tuple;
using youtopia::Value;
using youtopia::WireWriter;
namespace wal = youtopia::wal;

namespace {

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- parser

const char* kSqlSeeds[] = {
    // DDL (travel schema shapes).
    "CREATE TABLE flights (id INT NOT NULL, origin TEXT, dest TEXT, "
    "price DOUBLE, sold BOOL)",
    "CREATE INDEX ON flights (origin)",
    "DROP TABLE flights",
    // DML with every literal kind, multi-row, escaped quote.
    "INSERT INTO flights VALUES (1, 'SFO', 'JFK', 199.99, false), "
    "(2, 'O''Hare', NULL, 1e3, true)",
    "DELETE FROM flights WHERE price > 500 AND sold = false",
    "UPDATE flights SET price = price * 0.9, sold = true WHERE id = 2",
    // SELECT: expressions, aliases, joins, precedence.
    "SELECT f.id, f.price + 10 * 2 FROM flights f, bookings b "
    "WHERE f.id = b.flight AND NOT (f.price >= 100 OR f.sold != true)",
    "SELECT id FROM flights WHERE origin IN (SELECT dest FROM flights) "
    "AND price BETWEEN 50 AND 150",
    "SELECT -id, 'literal' FROM flights WHERE id <> 3",
    // Entangled queries (paper 2.1): INTO ANSWER, answer constraints,
    // CHOOSE.
    "SELECT 'alice', fno INTO ANSWER r1 "
    "WHERE fno IN (SELECT id FROM flights WHERE origin = 'SFO') "
    "AND ('bob', fno) IN ANSWER r1 CHOOSE 1",
    "SELECT 'a', fno INTO ANSWER ra, 'a', hid INTO ANSWER rb "
    "WHERE fno IN (SELECT id FROM flights) "
    "AND hid IN (SELECT id FROM hotels) CHOOSE 2",
    // Script edges: comments containing ';', empty statements,
    // unterminated-looking strings inside comments.
    "-- leading comment; with a semicolon\nSELECT 1;;\n"
    "SELECT 2 -- trailing'quote\n; SELECT 3",
    ";;;",
    "SELECT 'a;b' ; -- tail",
    // Numeric edges the lexer special-cases.
    "SELECT 9223372036854775807, 1.5e-300, 0.0001, 1e5 FROM t",
    // A '--' comment ends at the newline, so the WHERE is live (the
    // plan-cache key must not fold it into the comment).
    "UPDATE t SET y = 0 -- it's a comment\nWHERE x = 1;",
};

void EmitParserSeeds(const fs::path& out) {
  int i = 0;
  for (const char* sql : kSqlSeeds) {
    WriteSeed(out / "fuzz_parser", "sql_" + std::to_string(i++), sql);
  }
}

// ----------------------------------------------------- dump restore

void EmitDumpSeeds(const fs::path& out) {
  WriteSeed(out / "fuzz_dump_restore", "dump_0",
            "CREATE TABLE users (id INT NOT NULL, name TEXT, karma DOUBLE);\n"
            "INSERT INTO users VALUES (1, 'ann', 1.5), (2, 'bo''b', NULL);\n"
            "CREATE INDEX ON users (id);\n");
  WriteSeed(out / "fuzz_dump_restore", "dump_1",
            "CREATE TABLE a (x INT);\nCREATE TABLE b (y BOOL NOT NULL);\n"
            "INSERT INTO a VALUES (-9223372036854775808);\n"
            "INSERT INTO b VALUES (true), (false);\n");
  WriteSeed(out / "fuzz_dump_restore", "dump_2",
            "CREATE TABLE t (s TEXT);\n"
            "INSERT INTO t VALUES ('quote '' backslash \\ newline');\n"
            "DELETE FROM t WHERE s = 'nothing';\n"
            "UPDATE t SET s = 'rewritten' WHERE 1 = 1;\n");
}

// --------------------------------------------------------------- wire

void EmitWireSeeds(const fs::path& out) {
  const fs::path dir = out / "fuzz_wire";
  const Tuple row{Value::Int64(7), Value::String("SFO"), Value::Double(1.5),
                  Value::Bool(true), Value::Null()};

  net::ExecuteRequest exec_req;
  exec_req.request_id = 1;
  exec_req.sql = "SELECT id FROM flights WHERE price < 100";
  WriteSeed(dir, "execute_request", net::EncodeFrame(exec_req));

  net::ExecuteResponse exec_resp;
  exec_resp.request_id = 1;
  exec_resp.status = Status::OK();
  exec_resp.result.column_names = {"id", "origin", "price", "sold", "note"};
  exec_resp.result.rows = {row, row};
  exec_resp.result.affected_rows = 2;
  WriteSeed(dir, "execute_response", net::EncodeFrame(exec_resp));

  net::ScriptRequest script_req;
  script_req.request_id = 2;
  script_req.sql = "CREATE TABLE t (x INT); INSERT INTO t VALUES (1);";
  WriteSeed(dir, "script_request", net::EncodeFrame(script_req));

  net::ScriptResponse script_resp;
  script_resp.request_id = 2;
  script_resp.status = Status::InvalidArgument("syntax error at offset 3");
  WriteSeed(dir, "script_response", net::EncodeFrame(script_resp));

  net::SubmitRequest submit_req;
  submit_req.request_id = 3;
  submit_req.owner = "alice";
  submit_req.sql = "SELECT f.id INTO ANSWER r FROM flights f CHOOSE 1";
  WriteSeed(dir, "submit_request", net::EncodeFrame(submit_req));

  net::WireHandle handle;
  handle.query_id = 42;
  handle.done = true;
  handle.outcome = Status::OK();
  handle.answers = {row};

  net::SubmitResponse submit_resp;
  submit_resp.request_id = 3;
  submit_resp.status = Status::OK();
  submit_resp.handle = handle;
  WriteSeed(dir, "submit_response", net::EncodeFrame(submit_resp));

  net::SubmitBatchRequest batch_req;
  batch_req.request_id = 4;
  batch_req.owners = {"alice", "bob"};
  batch_req.statements = {submit_req.sql, submit_req.sql};
  WriteSeed(dir, "submit_batch_request", net::EncodeFrame(batch_req));

  net::SubmitBatchResponse batch_resp;
  batch_resp.request_id = 4;
  batch_resp.status = Status::OK();
  batch_resp.handles = {handle, handle};
  WriteSeed(dir, "submit_batch_response", net::EncodeFrame(batch_resp));

  net::RunRequest run_req;
  run_req.request_id = 5;
  run_req.owner = "carol";
  run_req.sql = "UPDATE t SET x = 2 WHERE x = 1";
  WriteSeed(dir, "run_request", net::EncodeFrame(run_req));

  net::RunResponse run_resp;
  run_resp.request_id = 5;
  run_resp.status = Status::OK();
  run_resp.entangled = true;
  run_resp.handle = handle;
  WriteSeed(dir, "run_response", net::EncodeFrame(run_resp));

  net::CancelRequest cancel_req;
  cancel_req.request_id = 6;
  cancel_req.query_id = 42;
  WriteSeed(dir, "cancel_request", net::EncodeFrame(cancel_req));

  net::CancelResponse cancel_resp;
  cancel_resp.request_id = 6;
  cancel_resp.status = Status::NotFound("query 42");
  WriteSeed(dir, "cancel_response", net::EncodeFrame(cancel_resp));

  net::CompletionPush push;
  push.query_id = 42;
  push.outcome = Status::Aborted("withdrawn");
  push.answers = {row};
  WriteSeed(dir, "completion_push", net::EncodeFrame(push));

  // A stream: several frames back to back, as the assembler sees them.
  WriteSeed(dir, "stream",
            net::EncodeFrame(exec_req) + net::EncodeFrame(exec_resp) +
                net::EncodeFrame(push));
}

// ---------------------------------------------------------------- wal

// Frames one record exactly as WalManager::EncodeFrame does:
// u32 length | u32 crc32(payload) | payload.
std::string FrameRecord(const wal::WalRecord& record) {
  WireWriter payload;
  record.EncodeTo(&payload);
  WireWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
  frame.PutU32(youtopia::Crc32(payload.bytes()));
  return frame.Take() + payload.bytes();
}

void EmitWalSeeds(const fs::path& out) {
  const fs::path dir = out / "fuzz_wal_replay";
  // Mode byte 0: segment bytes.
  const std::string kSegmentMode(1, '\0');

  std::string segment = kSegmentMode;
  segment += FrameRecord(wal::WalRecord::Statement(
      "CREATE TABLE t (x INT NOT NULL, s TEXT)"));
  segment += FrameRecord(
      wal::WalRecord::Statement("INSERT INTO t VALUES (1, 'a'), (2, 'b')"));
  segment += FrameRecord(wal::WalRecord::Submit(
      7, "alice", "SELECT 'alice', x INTO ANSWER r WHERE x IN (SELECT x FROM t) CHOOSE 1"));
  segment += FrameRecord(wal::WalRecord::Resolve(7));
  WriteSeed(dir, "segment_statements", segment);

  std::string install = kSegmentMode;
  wal::WalRedoWrite write;
  write.kind = wal::WalRedoWrite::Kind::kInsert;
  write.table = "r";
  write.rid = 0;
  write.tuple = Tuple{Value::Int64(1)};
  install += FrameRecord(wal::WalRecord::Install({7, 8}, {write}));
  WriteSeed(dir, "segment_install", install);

  // A torn tail: one good record then half of another.
  std::string torn = kSegmentMode;
  torn += FrameRecord(wal::WalRecord::Statement("CREATE TABLE t (x INT)"));
  const std::string next =
      FrameRecord(wal::WalRecord::Statement("INSERT INTO t VALUES (1)"));
  torn += next.substr(0, next.size() / 2);
  WriteSeed(dir, "segment_torn_tail", torn);

  // Mode byte 1: checkpoint file bytes (framed u32 length | u32 crc).
  wal::CheckpointState state;
  wal::CheckpointTable table;
  table.name = "t";
  table.schema = youtopia::Schema(
      {{"x", youtopia::DataType::kInt64, false},
       {"s", youtopia::DataType::kString, true}});
  table.indexed_columns = {"x"};
  table.slot_count = 2;
  table.rows = {{0, Tuple{Value::Int64(1), Value::String("a")}},
                {1, Tuple{Value::Int64(2), Value::Null()}}};
  state.tables.push_back(std::move(table));
  state.pending.push_back(
      {7, "alice", "SELECT 'alice', x INTO ANSWER r WHERE x IN (SELECT x FROM t) CHOOSE 1"});
  state.next_query_id = 8;
  state.first_segment = 2;

  WireWriter payload;
  state.EncodeTo(&payload);
  WireWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
  frame.PutU32(youtopia::Crc32(payload.bytes()));
  WriteSeed(dir, "checkpoint",
            std::string(1, '\x01') + frame.Take() + payload.bytes());
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path out = argc > 1 ? argv[1] : "fuzz/corpus";
  EmitParserSeeds(out);
  EmitDumpSeeds(out);
  EmitWireSeeds(out);
  EmitWalSeeds(out);
  std::printf("seed corpora written under %s\n", out.string().c_str());
  return 0;
}
