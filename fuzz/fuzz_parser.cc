// Fuzz target: the SQL front end. Raw bytes go through the lexer, the
// single-statement parser, and the script splitter; anything the parser
// accepts must survive an unparse -> reparse round trip (the dump/
// restore path depends on exactly this), and every ScriptPart's sliced
// source text must itself reparse to the same SQL.
//
// Invariants:
//   P1  Parse never crashes, hangs, or trips ASan/UBSan on any input.
//   P2  ParseStatement ok  =>  StatementToSql(stmt) reparses, and
//       unparse(reparse(unparse(stmt))) == unparse(stmt) (fixpoint).
//   P3  ParseScriptParts ok  =>  each part.text is nonempty, reparses
//       as one statement, and unparses identically to part.stmt — the
//       offset-slicing contract the per-step plan cache keys on.
//   P4  ParseScript and ParseScriptParts agree on statement count.
//   P5  ParseStatement(s) and ParseStatement(PlanCache::NormalizeKey(s))
//       agree on accept, and unparse identically when both accept — so
//       texts sharing a plan-cache key never name different statements.

#include <cstdint>
#include <string>
#include <string_view>

#include "fuzz_util.h"
#include "server/plan_cache.h"
#include "sql/parser.h"
#include "sql/unparser.h"

using youtopia::Parser;
using youtopia::PlanCache;
using youtopia::StatementToSql;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view sql(reinterpret_cast<const char*>(data), size);

  auto stmt = Parser::ParseStatement(sql);
  if (stmt.ok()) {
    const std::string text = StatementToSql(**stmt);
    auto again = Parser::ParseStatement(text);
    FUZZ_ASSERT(again.ok(), "P2: unparsed accepted statement must reparse");
    FUZZ_ASSERT(StatementToSql(**again) == text,
                "P2: unparse/reparse must reach a fixpoint");
  }

  auto keyed = Parser::ParseStatement(PlanCache::NormalizeKey(sql));
  FUZZ_ASSERT(keyed.ok() == stmt.ok(),
              "P5: a text and its plan-cache key must agree on accept");
  if (stmt.ok()) {
    FUZZ_ASSERT(StatementToSql(**keyed) == StatementToSql(**stmt),
                "P5: a text and its plan-cache key must parse alike");
  }

  auto parts = Parser::ParseScriptParts(sql);
  auto script = Parser::ParseScript(sql);
  FUZZ_ASSERT(parts.ok() == script.ok(),
              "P4: ParseScript and ParseScriptParts must agree on accept");
  if (parts.ok()) {
    FUZZ_ASSERT(parts->size() == script->size(),
                "P4: ParseScript and ParseScriptParts must agree on count");
    for (const Parser::ScriptPart& part : *parts) {
      FUZZ_ASSERT(!part.text.empty(),
                  "P3: a sliced statement text must be nonempty");
      auto repart = Parser::ParseStatement(part.text);
      FUZZ_ASSERT(repart.ok(), "P3: a sliced statement text must reparse");
      FUZZ_ASSERT(StatementToSql(**repart) == StatementToSql(*part.stmt),
                  "P3: sliced text must reparse to the same statement");
    }
  }
  return 0;
}
